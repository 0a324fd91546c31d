package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"mdlog/internal/service"
)

// daemon is mdlogd booted in-process with its defaults (default engine
// and opt level, 256-entry doc cache, 64 admission slots, no shards, no
// data dir) behind a loopback httptest server, plus a client limited to
// conns connections.
type daemon struct {
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
}

func bootDaemon(conns int) (*daemon, error) {
	srv, err := service.New(&service.Config{})
	if err != nil {
		return nil, fmt.Errorf("booting mdlogd: %w", err)
	}
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &daemon{srv: srv, hs: hs, client: &http.Client{Transport: tr}}, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
}

// reply is one HTTP exchange: status, full body, and the time from
// sending the request to having read the whole body.
type reply struct {
	status int
	body   []byte
	lat    time.Duration
}

// do sends one request; body may be nil. size is the body length (-1:
// unknown).
func (d *daemon) do(method, path string, body io.Reader, size int64) (reply, error) {
	req, err := http.NewRequest(method, d.hs.URL+path, body)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.ContentLength = size
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: b, lat: lat}, nil
}

// doJSON sends v as a JSON body.
func (d *daemon) doJSON(method, path string, v any) (reply, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	return d.do(method, path, bytes.NewReader(b), int64(len(b)))
}

// register installs a fleet through PUT /wrappers/{name}.
func (d *daemon) register(fleet []wrapperDef) error {
	for _, w := range fleet {
		r, err := d.doJSON(http.MethodPut, "/wrappers/"+w.Name, w.spec())
		if err != nil {
			return err
		}
		if r.status != http.StatusCreated && r.status != http.StatusOK {
			return fmt.Errorf("registering %s: status %d: %s", w.Name, r.status, r.body)
		}
	}
	return nil
}

// rejected reads the 503 count from /stats.
func (d *daemon) rejected() (float64, error) {
	r, err := d.do(http.MethodGet, "/stats", nil, 0)
	if err != nil {
		return 0, err
	}
	var st struct {
		Service struct {
			Rejected float64 `json:"rejected"`
		} `json:"service"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		return 0, fmt.Errorf("decoding /stats: %w", err)
	}
	return st.Service.Rejected, nil
}

// setReply is the body of /extractall and /documents/{id}/extractall
// with output=nodes.
type setReply struct {
	Results []struct {
		Wrapper string `json:"wrapper"`
		Nodes   []int  `json:"nodes"`
		Error   string `json:"error"`
	} `json:"results"`
}

// tally counts attempted and failed operations and keeps the first
// failure messages. A failed, refused or wrong response fails its
// operation.
type tally struct {
	workload string
	attempts int
	failures int
	msgs     []string
}

const keptFailures = 20

// record counts one attempted operation, failed unless ok.
func (t *tally) record(ok bool) {
	t.attempts++
	if !ok {
		t.failures++
	}
}

// mismatch reports what was wrong with an operation: index is the
// request (or step) index, wrapper the member at fault ("" when none).
// The operation itself is counted by record.
func (t *tally) mismatch(index int, wrapper, format string, args ...any) {
	msg := fmt.Sprintf("%s: request %d: wrapper %q: %s", t.workload, index, wrapper, fmt.Sprintf(format, args...))
	if len(t.msgs) < keptFailures {
		t.msgs = append(t.msgs, msg)
		fmt.Fprintln(os.Stderr, "MISMATCH", msg)
	}
}

func (t *tally) counts() (attempted, failed int) { return t.attempts, t.failures }
