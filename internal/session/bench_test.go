package session

import (
	"context"
	"testing"

	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/ebsn"
)

// BenchmarkWarmResolve measures a warm session's resolve after the
// three edits whose resolves select: a pin-set change (which replays
// nothing), an update_interest and an add_competing, in turn, one
// edit and one resolve per op. The instance is the one `sesbench -fig
// resolve -scale small` builds: 2000 users, k = 50, 100 candidate
// events over 75 intervals. Besides ns/op and allocs/op it reports
// the kernel's pops and score updates per op.
//
//	go test -run xxx -bench BenchmarkWarmResolve -benchmem ./internal/session/
func BenchmarkWarmResolve(b *testing.B) {
	cfg := ebsn.DefaultConfig(42)
	cfg.NumUsers, cfg.NumEvents, cfg.NumTags, cfg.NumGroups = 2000, 4096, 2000, 150
	ds, err := ebsn.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const k = 50
	inst, err := dataset.BuildInstance(ds, dataset.PaperParams{K: k, Intervals: 3 * k / 2, CandidateEvents: 2 * k, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(inst, k, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Resolve(ctx); err != nil {
		b.Fatal(err)
	}
	nU, nT := inst.NumUsers, inst.NumIntervals
	pinned := -1
	edit := func(i int) error {
		switch i % 3 {
		case 0:
			// Pin a committed pair, or release the pin set last time.
			if pinned >= 0 {
				err := s.Unpin(pinned)
				pinned = -1
				return err
			}
			a := s.cur[(i/3)%len(s.cur)]
			pinned = a.Event
			return s.Pin(a.Event, a.Interval)
		case 1:
			e := s.cur[(i/3)%len(s.cur)].Event
			return s.UpdateInterest((i*131)%nU, e, float64(i%10)/10)
		default:
			_, err := s.AddCompeting(core.CompetingEvent{Interval: (i * 7) % nT},
				map[int]float64{(i * 17) % nU: 0.5, (i*29 + 3) % nU: 0.25})
			return err
		}
	}
	var pops, updates int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := edit(i); err != nil {
			b.Fatal(err)
		}
		d, err := s.Resolve(ctx)
		if err != nil {
			b.Fatal(err)
		}
		pops += d.Counters.Pops
		updates += d.Counters.ScoreUpdates
	}
	b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
	b.ReportMetric(float64(updates)/float64(b.N), "score_updates/op")
}
