package mdlog

// Tests for the HTML ingestion fan-out through Map: per-document
// error isolation (a reader failing mid-stream must not abort the
// batch), wrap streaming, and context cancellation semantics.

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

// failingReader yields its prefix, then fails every subsequent Read —
// the shape of a network body dying mid-transfer.
type failingReader struct {
	prefix string
	err    error
	done   bool
}

func (f *failingReader) Read(p []byte) (int, error) {
	if !f.done {
		f.done = true
		n := copy(p, f.prefix)
		return n, nil
	}
	return 0, f.err
}

const streamPage = `<html><body><table>
<tr><td>Espresso</td><td><b>2.20</b></td></tr>
<tr><td>Water</td><td>1.00</td></tr>
</table></body></html>`

// selectHTML is the HTML ingestion task: parse the reader inside the
// worker pool, then Select — a parse (read) error fails only its own
// document.
func selectHTML(q *CompiledQuery) func(context.Context, io.Reader) ([]int, error) {
	return func(ctx context.Context, rd io.Reader) ([]int, error) {
		doc, err := ParseHTMLReader(rd)
		if err != nil {
			return nil, err
		}
		return q.Select(ctx, doc)
	}
}

func streamQuery(t *testing.T) *CompiledQuery {
	t.Helper()
	q, err := Compile("//td[b]", LangXPath)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSelectHTMLStreamMidStreamFailure: parse-then-Select through Map;
// document 1's reader dies mid-stream, documents 0 and 2 must still
// parse and evaluate, and results must arrive in input order.
func TestSelectHTMLStreamMidStreamFailure(t *testing.T) {
	q := streamQuery(t)
	boom := errors.New("connection reset")
	srcs := make(chan io.Reader, 3)
	srcs <- strings.NewReader(streamPage)
	srcs <- &failingReader{prefix: "<html><body><table><tr>", err: boom}
	srcs <- strings.NewReader(streamPage)
	close(srcs)

	var got []Result[[]int]
	for res := range Map(context.Background(), Runner{Workers: 2}, srcs, selectHTML(q)) {
		got = append(got, res)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for i, res := range got {
		if res.Index != i {
			t.Errorf("result %d has index %d, want in input order", i, res.Index)
		}
	}
	if got[1].Err == nil || !errors.Is(got[1].Err, boom) {
		t.Errorf("doc 1: want the reader's error, got %v", got[1].Err)
	}
	if got[1].Value != nil {
		t.Errorf("doc 1: want no nodes on parse failure, got %v", got[1].Value)
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil {
			t.Fatalf("doc %d: batch aborted by sibling failure: %v", i, got[i].Err)
		}
		if len(got[i].Value) != 1 {
			t.Errorf("doc %d: got nodes %v, want exactly one //td[b] match", i, got[i].Value)
		}
	}
}

// TestWrapHTMLStreamMidStreamFailure: same isolation contract for a
// parse-then-wrap task.
func TestWrapHTMLStreamMidStreamFailure(t *testing.T) {
	q, err := Compile(`
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b", x0, x).
`, LangElog, WithWrapOptions(WrapOptions{KeepText: true}))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("read timeout")
	srcs := make(chan io.Reader, 2)
	srcs <- &failingReader{prefix: "<html><body>", err: boom}
	srcs <- strings.NewReader(streamPage)
	close(srcs)

	// The task parses inside the pool and returns both answer shapes:
	// the assignment (Run) and the output tree (Wrap, a memo hit).
	type wrapped struct {
		res SetResult
		out *Tree
	}
	wrapHTML := func(ctx context.Context, rd io.Reader) (wrapped, error) {
		doc, err := ParseHTMLReader(rd)
		if err != nil {
			return wrapped{}, err
		}
		res := q.Run(ctx, doc)
		if res.Err != nil {
			return wrapped{}, res.Err
		}
		out, err := q.Wrap(ctx, doc)
		return wrapped{res, out}, err
	}
	var got []Result[wrapped]
	for res := range Map(context.Background(), Runner{Workers: 2}, srcs, wrapHTML) {
		got = append(got, res)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	if !errors.Is(got[0].Err, boom) {
		t.Errorf("doc 0: want the reader's error, got %v", got[0].Err)
	}
	if got[1].Err != nil {
		t.Fatalf("doc 1: batch aborted by sibling failure: %v", got[1].Err)
	}
	if a := got[1].Value.res.Assignment; len(a["item"]) != 2 {
		t.Errorf("doc 1: assignment %v, want 2 item nodes", a)
	}
	if got[1].Value.out == nil {
		t.Error("doc 1: want an output tree")
	}
}

// TestSelectHTMLStreamCancellation: canceling a Map mid-stream marks the
// not-yet-processed documents with ctx.Err() and closes the channel;
// it never deadlocks the consumer.
func TestSelectHTMLStreamCancellation(t *testing.T) {
	q := streamQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	srcs := make(chan io.Reader)
	go func() {
		defer close(srcs)
		for i := 0; i < 100; i++ {
			select {
			case srcs <- strings.NewReader(streamPage):
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Map(ctx, Runner{Workers: 2}, srcs, selectHTML(q))
	first, ok := <-out
	if !ok {
		t.Fatal("stream closed before yielding anything")
	}
	if first.Err != nil {
		t.Fatalf("first document failed: %v", first.Err)
	}
	cancel()
	sawCancel := false
	for res := range out { // must terminate: channel closes after cancel
		if res.Err != nil && errors.Is(res.Err, context.Canceled) {
			sawCancel = true
		}
	}
	_ = sawCancel // cancellation may land after the last accepted doc finished
}
