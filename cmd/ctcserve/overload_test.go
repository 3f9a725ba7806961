package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trussindex"
)

// TestHTTPErrorTaxonomy is the errors.Is → status-code table for the wire
// layer: every failure mode maps to a distinct status and stable code, and
// the backoff-carrying responses (429 overloaded, 503 degraded) set
// Retry-After.
func TestHTTPErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name       string
		write      func(w http.ResponseWriter)
		status     int
		code       string
		retryAfter string // "" = header must be absent
	}{
		{"overloaded", func(w http.ResponseWriter) {
			writeQueryError(w, &admit.OverloadError{Reason: "deadline", RetryAfter: 3 * time.Second})
		}, http.StatusTooManyRequests, "overloaded", "3"},
		{"overloaded sub-second hint rounds up", func(w http.ResponseWriter) {
			writeQueryError(w, &admit.OverloadError{Reason: "queue full", RetryAfter: 10 * time.Millisecond})
		}, http.StatusTooManyRequests, "overloaded", "1"},
		{"canceled", func(w http.ResponseWriter) {
			writeQueryError(w, fmt.Errorf("search: %w", context.Canceled))
		}, statusClientClosedRequest, "canceled", ""},
		{"deadline", func(w http.ResponseWriter) {
			writeQueryError(w, fmt.Errorf("search: %w", context.DeadlineExceeded))
		}, http.StatusGatewayTimeout, "deadline_exceeded", ""},
		{"no community", func(w http.ResponseWriter) {
			writeQueryError(w, trussindex.ErrNoCommunity)
		}, http.StatusNotFound, "no_community", ""},
		{"bad request", func(w http.ResponseWriter) {
			writeQueryError(w, fmt.Errorf("%w: k", core.ErrBadParam))
		}, http.StatusBadRequest, "bad_request", ""},
		// An unknown algo is rejected while decoding, before the backend is
		// touched, so none is wired.
		{"unknown algo", func(w http.ResponseWriter) {
			newServer(nil).ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(`{"q":[1],"algo":"dtruss"}`)))
		}, http.StatusBadRequest, "bad_request", ""},
		{"internal", func(w http.ResponseWriter) {
			writeQueryError(w, fmt.Errorf("boom"))
		}, http.StatusUnprocessableEntity, "internal", ""},
		{"degraded update", func(w http.ResponseWriter) {
			writeUpdateError(w, serve.ErrDegraded)
		}, http.StatusServiceUnavailable, "degraded", "30"},
		{"closed update", func(w http.ResponseWriter) {
			writeUpdateError(w, serve.ErrClosed)
		}, http.StatusServiceUnavailable, "unavailable", ""},
		// The body cap rejects before the backend is touched, so none is wired.
		{"oversized query body", func(w http.ResponseWriter) {
			newServer(nil).ServeHTTP(w, httptest.NewRequest("POST", "/query", oversizedBody()))
		}, http.StatusRequestEntityTooLarge, "too_large", ""},
		{"oversized update body", func(w http.ResponseWriter) {
			newServer(nil).ServeHTTP(w, httptest.NewRequest("POST", "/update", oversizedBody()))
		}, http.StatusRequestEntityTooLarge, "too_large", ""},
		// A body well under the byte cap whose query set is far over core's
		// |Q| cap: rejected by validation before admission.
		{"too many query vertices", func(w http.ResponseWriter) {
			g, _ := slowChainGraph()
			mgr := serve.NewManager(g, serve.Options{})
			defer mgr.Close()
			body, _ := json.Marshal(queryRequest{Q: make([]int, 1<<16)})
			newServer(mgr).ServeHTTP(w, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		}, http.StatusBadRequest, "bad_request", ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		tc.write(rec)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("%s: non-JSON body %q", tc.name, rec.Body.String())
			continue
		}
		if body["code"] != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, body["code"], tc.code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.name, got, tc.retryAfter)
		}
	}
}

// oversizedBody is a well-formed JSON body just over maxBodyBytes: a
// query-vertex list no real client sends.
func oversizedBody() io.Reader {
	return strings.NewReader(`{"q":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`)
}

// TestServerOverloadSurface drives the full 429 path over the handler: with
// the single execution slot held by a slow query and an enormous seeded
// cost estimate, a deadline-carrying request is shed as a typed 429 with
// Retry-After (never a 504), /healthz flips to {"status":"overloaded"} but
// stays 200 (shedding is healthy — an orchestrator must not restart the
// instance), and the shed request leaves no trace in the execution
// counters.
func TestServerOverloadSurface(t *testing.T) {
	g, q := slowChainGraph()
	mgr := serve.NewManager(g, serve.Options{Admission: admit.Config{
		MaxConcurrent: 1, QueueSize: 4, CacheEntries: -1, InitialCostNS: 1 << 40,
	}})
	t.Cleanup(mgr.Close)
	h := newServer(mgr)

	// Healthy before any load.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var hz healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || rec.Code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("idle healthz: %d %q (%v)", rec.Code, rec.Body.String(), err)
	}

	// Hold the only slot with the slow query.
	holdCtx, holdCancel := context.WithCancel(context.Background())
	slow, _ := json.Marshal(queryRequest{Q: q, Algo: "basic", K: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(slow)).WithContext(holdCtx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().QueryInflight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A deadline-carrying request against the saturated gate: typed 429.
	body, _ := json.Marshal(queryRequest{Q: q, TimeoutMS: 50, Tenant: "late"})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request status %d (%s), want 429", rec.Code, rec.Body.String())
	}
	var errBody map[string]string
	_ = json.Unmarshal(rec.Body.Bytes(), &errBody)
	if errBody["code"] != "overloaded" {
		t.Fatalf("shed request code %q, want \"overloaded\"", errBody["code"])
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// /healthz reports overloaded, still 200.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if rec.Code != http.StatusOK || hz.Status != "overloaded" || !hz.Overloaded || hz.Degraded {
		t.Fatalf("overloaded healthz: %d %+v", rec.Code, hz)
	}

	// The shed request consumed nothing; per-tenant rejection is visible.
	st := mgr.Stats()
	if st.QueriesAdmitted != st.QueriesExecuted {
		t.Fatalf("admitted=%d executed=%d — the shed request consumed capacity",
			st.QueriesAdmitted, st.QueriesExecuted)
	}
	if st.Tenants["late"].Rejected != 1 {
		t.Fatalf("tenant accounting: %+v", st.Tenants)
	}

	holdCancel()
	wg.Wait()
}

// TestQueryTenantAndCacheOnWire: the tenant rides in via header or body,
// and a repeated request reports cache_hit on the wire.
func TestQueryTenantAndCacheOnWire(t *testing.T) {
	g, q := slowChainGraph()
	mgr := serve.NewManager(g, serve.Options{})
	t.Cleanup(mgr.Close)
	h := newServer(mgr)

	do := func(withHeader bool) queryResponse {
		t.Helper()
		body, _ := json.Marshal(queryRequest{Q: q[:1], Algo: "truss"})
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
		if withHeader {
			req.Header.Set("X-Tenant", "hdr-tenant")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
		}
		var qr queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	first := do(true)
	if first.Stats.CacheHit || first.Stats.Tenant != "hdr-tenant" {
		t.Fatalf("first response stats: %+v", first.Stats)
	}
	second := do(false)
	if !second.Stats.CacheHit {
		t.Fatalf("repeat not served from cache: %+v", second.Stats)
	}
}
