// Package opsurfacetest holds the operator surface's endpoint table and
// the sweep both daemons' tests run against it, so the endpoint
// contract cannot drift between them.
package opsurfacetest

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
)

// Endpoint is one GET-only route and the Content-Type its GET answers.
type Endpoint struct{ Path, ContentType string }

// Endpoints are the routes every surface mounts whenever -http is set.
var Endpoints = []Endpoint{
	{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
	{"/events", "application/json"},
	{"/healthz", "application/json"},
	{"/live", "text/html; charset=utf-8"},
	{"/live/epochs", "application/json"},
	{"/history", "application/json"},
	{"/alerts", "application/json"},
}

// Sweep checks Endpoints and extra on base ("http://host:port"): GET
// answers 200 (503 for /healthz while draining) with the entry's
// Content-Type, and POST answers 405 with Allow: GET.
func Sweep(t testing.TB, base string, draining bool, extra ...Endpoint) {
	t.Helper()
	for _, ep := range append(slices.Clone(Endpoints), extra...) {
		want := "200 " + ep.ContentType
		if draining && ep.Path == "/healthz" {
			want = "503 " + ep.ContentType
		}
		resp, err := http.Get(base + ep.Path)
		if got := answer(t, resp, err, "Content-Type"); got != want {
			t.Errorf("GET %s = %s, want %s", ep.Path, got, want)
		}
		resp, err = http.Post(base+ep.Path, "text/plain", nil)
		if got := answer(t, resp, err, "Allow"); got != "405 GET" {
			t.Errorf("POST %s = %s, want 405 GET (status, Allow)", ep.Path, got)
		}
	}
}

// answer is a response's status and one header, "<status> <value>"; it
// drains the body for connection reuse.
func answer(t testing.TB, resp *http.Response, err error, header string) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("%s: read body: %v", resp.Request.URL, err)
	}
	return fmt.Sprintf("%d %s", resp.StatusCode, resp.Header.Get(header))
}
