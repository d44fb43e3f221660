package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterAndGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	c.Add(4)
	c.Inc()
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var nilC *Counter
	if nilC.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	g := r.Gauge("g", "g")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
	var nilG *Gauge
	if nilG.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
}

func TestCounterVecSum(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "code")
	if v.Sum() != 0 {
		t.Errorf("empty vector sum = %d, want 0", v.Sum())
	}
	v.With("/a", "200").Add(3)
	v.With("/a", "404").Inc()
	v.With("/b", "200").Add(2)
	if v.Sum() != 6 {
		t.Errorf("sum = %d, want 6", v.Sum())
	}
	// The same family found again reads the same children.
	if again := r.CounterVec("req_total", "requests", "route", "code"); again.Sum() != 6 {
		t.Errorf("re-registered sum = %d, want 6", again.Sum())
	}
	var nilV *CounterVec
	if nilV.Sum() != 0 {
		t.Error("nil vector sum != 0")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	if empty := h.Snapshot().Quantile(0.5); empty != 0 {
		t.Errorf("empty quantile = %v, want 0", empty)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05) // all land in the (0.01, 0.1] bucket
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q != (0.01+0.1)/2 {
		t.Errorf("p50 = %v, want bucket midpoint %v", q, (0.01+0.1)/2)
	}
	// Values past the last bound land in +Inf; the estimate degrades
	// to the last finite bound instead of inventing an infinity.
	h.Observe(50)
	if q := h.Snapshot().Quantile(1.0); q != 1 {
		t.Errorf("p100 with +Inf tail = %v, want last bound 1", q)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Add(3)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 3") {
		t.Errorf("exposition body:\n%s", rec.Body.String())
	}
}

func TestSlowTraceLogging(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerOptions{
		SlowTrace: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ctx, root := tr.StartRoot(context.Background(), SpanHandler, "")
	_, child := StartSpan(ctx, SpanResolve, A("session", "fest"))
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	log := buf.String()
	if !strings.Contains(log, "slow trace") || !strings.Contains(log, SpanResolve) || !strings.Contains(log, "session=fest") {
		t.Errorf("slow-trace log missing tree:\n%s", log)
	}

	// Below the threshold nothing is logged.
	buf.Reset()
	quiet := NewTracer(TracerOptions{SlowTrace: time.Hour, Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	_, sp := quiet.StartRoot(context.Background(), SpanHandler, "")
	sp.End()
	if buf.Len() != 0 {
		t.Errorf("fast trace logged:\n%s", buf.String())
	}

	// SlowTrace without an explicit logger falls back to slog.Default.
	if def := NewTracer(TracerOptions{SlowTrace: time.Hour}); def.opts.Logger == nil {
		t.Error("default slow-trace logger not installed")
	}
}

func TestStartsCounterAndRemoteOnlySummary(t *testing.T) {
	tr := NewTracer(TracerOptions{Ring: 4})
	_, sp := tr.StartRoot(context.Background(), SpanHandler, "")
	sp.End()
	if tr.Starts() != 1 {
		t.Errorf("starts = %d, want 1", tr.Starts())
	}
	var nilT *Tracer
	if nilT.Starts() != 0 {
		t.Error("nil tracer starts != 0")
	}

	// A remote-only trace (follower side, no local root) lists with an
	// empty root name and its spans counted.
	tr.RecordRemote("0123456789abcdef", SpanReplApply, time.Now(), time.Millisecond, A("peer", "n1"))
	var remote *TraceSummary
	for _, s := range tr.Traces(0, 0) {
		if s.ID == "0123456789abcdef" {
			remote = &s
			break
		}
	}
	if remote == nil || remote.Root != "" || remote.Spans != 1 {
		t.Errorf("remote-only summary = %+v, want empty root with 1 span", remote)
	}
}
