package cluster

import (
	"fmt"
	"testing"
)

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestParsePeers(t *testing.T) {
	for spec, want := range map[string]map[string]string{
		"n1=http://a:1,n2=http://b:2/, n3=http://c:3": {"n1": "http://a:1", "n2": "http://b:2", "n3": "http://c:3"},
		"n1=http://a:1, n2=http://b:2/":               {"n1": "http://a:1", "n2": "http://b:2"},
	} {
		peers, err := ParsePeers(spec)
		if err != nil {
			t.Fatalf("ParsePeers(%q): %v", spec, err)
		}
		if fmt.Sprint(peers) != fmt.Sprint(want) {
			t.Errorf("ParsePeers(%q) = %v, want %v", spec, peers, want)
		}
	}
	for _, bad := range []string{"", "n1", "n1=", "=http://a", "=u", "n1=x,n1=y", "a=1,a=2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestRingDeterministicAcrossConstruction(t *testing.T) {
	a, err := NewRing([]string{"n3", "n1", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n2", "n3", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("session-%d", i)
		if a.Primary(s) != b.Primary(s) {
			t.Fatalf("ring order depends on construction order for %q: %s vs %s", s, a.Primary(s), b.Primary(s))
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Primary(fmt.Sprintf("session-%d", i))]++
	}
	for node, c := range counts {
		share := float64(c) / n
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.0f%% of sessions; ring is badly unbalanced: %v", node, share*100, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own sessions: %v", len(counts), counts)
	}
}

func TestRingMinimalMovementOnNodeLoss(t *testing.T) {
	full, err := NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"n1", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("session-%d", i)
		was, is := full.Primary(s), reduced.Primary(s)
		if was != "n3" && was != is {
			moved++
		}
	}
	// Only n3's arcs may move; sessions owned by surviving nodes stay put.
	if moved != 0 {
		t.Fatalf("%d sessions moved between surviving nodes on n3's removal", moved)
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3", "n4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("session-%d", i)
		primary := r.Primary(s)
		succ := r.Successors(s, 3)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q, 3) = %v", s, succ)
		}
		seen := map[string]bool{primary: true}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("Successors(%q) repeats %s: %v (primary %s)", s, n, succ, primary)
			}
			seen[n] = true
		}
	}
}
