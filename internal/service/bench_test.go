package service

// BenchmarkServicePath measures what the HTTP serving layer
// costs on top of the direct library API. Three lanes share one
// wrapper and one document:
//
//   - "direct":       CompiledQuery.Select on a pre-parsed tree — the
//     in-process floor (result-memo hit after the first run).
//   - "extract-http": POST /extract/{name} through a real HTTP stack
//     (httptest server, fresh body parse per request — the per-request
//     shape of serving distinct pages).
//   - "batch-http-16": POST /batch/{name} with 16 documents per
//     request, fanned across the worker pool.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mdlog "mdlog"
	"mdlog/internal/html"
)

func BenchmarkServicePath(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	page := html.ProductListing(rng, 100)
	// The HTTP lanes post the same page every iteration; with the
	// content-hash dedup cache on, every request after the first would
	// be a cache hit instead of a parse.
	cfg := &Config{DocCacheEntries: -1, Wrappers: []ConfigWrapper{{
		Name:        "items",
		WrapperSpec: WrapperSpec{Lang: mdlog.LangXPath, Source: "//tr[td/b]/td"},
	}}}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wr, _ := s.Registry().Get("items")
	doc := mdlog.ParseHTML(page)

	b.Run("direct", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := wr.Query.Select(ctx, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	post := func(b *testing.B, url, body string) {
		resp, err := http.Post(url, "text/html", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("extract-http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/extract/items", page)
		}
	})
	b.Run("batch-http-16", func(b *testing.B) {
		var docs []string
		for i := 0; i < 16; i++ {
			docs = append(docs, fmt.Sprintf(`{"id":"p%d","html":%q}`, i, page))
		}
		body := `{"docs":[` + strings.Join(docs, ",") + `]}`
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/batch/items", body)
		}
	})
}
