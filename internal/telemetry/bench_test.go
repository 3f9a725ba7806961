package telemetry

import (
	"io"
	"testing"
	"time"
)

// BenchmarkTelemetryOverhead measures the per-sample cost of each hot-path
// primitive. The bar is single-digit nanoseconds and 0 allocs/op for
// everything but scrape.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("CounterInc", func(b *testing.B) {
		r := NewRegistry()
		c := r.NewCounter("b_total", "c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		r := NewRegistry()
		h := r.NewHistogram("b_seconds", "h", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i%1000) * time.Microsecond)
		}
	})
	b.Run("VecWith", func(b *testing.B) {
		r := NewRegistry()
		hv := r.NewHistogramVec("b_vec_seconds", "hv", "algo", nil)
		hv.With("LCTC")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hv.With("LCTC").Observe(time.Millisecond)
		}
	})
	b.Run("TracerObserve", func(b *testing.B) {
		r := NewRegistry()
		tr := NewTracer(r, TracerOptions{SlowThreshold: time.Hour})
		rec := QueryRecord{
			Algo: "LCTC", Tenant: "bench", Outcome: "ok", Epoch: 1,
			Seed: 50 * time.Microsecond, Expand: 200 * time.Microsecond,
			Peel: 100 * time.Microsecond, QueueWait: 10 * time.Microsecond,
			Total: 400 * time.Microsecond,
		}
		tr.Observe(rec)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Observe(rec)
		}
	})
	b.Run("TracerObserveNil", func(b *testing.B) {
		var tr *Tracer
		rec := QueryRecord{Algo: "LCTC", Outcome: "ok", Total: time.Millisecond}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Observe(rec)
		}
	})
	b.Run("Scrape", func(b *testing.B) {
		r := NewRegistry()
		tr := NewTracer(r, TracerOptions{})
		RegisterBuildInfo(r)
		for _, algo := range []string{"LCTC", "Basic", "BD", "Truss"} {
			tr.Observe(QueryRecord{Algo: algo, Outcome: "ok", Total: time.Millisecond,
				Seed: time.Microsecond, Expand: time.Microsecond, Peel: time.Microsecond})
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
