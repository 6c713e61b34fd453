package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gdbm/internal/model"
)

func TestNilStatsDefaults(t *testing.T) {
	var s *Stats
	if got := s.CountNodes(""); got != defaultNodes {
		t.Errorf("nil CountNodes = %v", got)
	}
	if got := s.CountNodes("person"); got != defaultNodes*defaultLabelSel {
		t.Errorf("nil CountNodes(person) = %v", got)
	}
	if got := s.Fanout("", model.Out); got != defaultFanout {
		t.Errorf("nil Fanout = %v", got)
	}
	if got := s.Fanout("knows", model.Both); math.Abs(got-2*defaultFanout*defaultLabelSel) > 1e-9 {
		t.Errorf("nil Fanout(knows, Both) = %v", got)
	}
	if got := s.PropSelectivity("", "rank"); got != defaultPropSel {
		t.Errorf("nil PropSelectivity = %v", got)
	}
	if _, ok := s.DistinctValues("", "rank"); ok {
		t.Error("nil DistinctValues reported ok")
	}
	if got := s.DegreeP90(); got != defaultFanout {
		t.Errorf("nil DegreeP90 = %v", got)
	}
}

func TestKMVExactBelowK(t *testing.T) {
	m := NewKMV(16)
	for i := 0; i < 10; i++ {
		m.Add(hashValue(model.Int(int64(i % 5))))
	}
	if got := m.Distinct(); got != 5 {
		t.Errorf("Distinct = %v, want 5 exact", got)
	}
}

func TestKMVEstimateAccuracy(t *testing.T) {
	m := NewKMV(256)
	const n = 50000
	for i := 0; i < n; i++ {
		m.Add(hashValue(model.Str(fmt.Sprintf("v%d", i))))
	}
	got := m.Distinct()
	if got < n*0.8 || got > n*1.2 {
		t.Errorf("Distinct = %v, want within 20%% of %d", got, n)
	}
	// Re-adding the same values must not move the estimate.
	before := m.Distinct()
	for i := 0; i < 1000; i++ {
		m.Add(hashValue(model.Str(fmt.Sprintf("v%d", i))))
	}
	if after := m.Distinct(); after != before {
		t.Errorf("duplicate adds moved the estimate: %v -> %v", before, after)
	}
}

// TestHashValueMatchesFNV pins hashValue bit-for-bit to hash/fnv FNV-1a
// over EncodeKey plus mix64: a changed hash changes every sketch, and with
// it the plans the cost planner picks.
func TestHashValueMatchesFNV(t *testing.T) {
	corpus := []model.Value{
		model.Null(), model.Bool(false), model.Bool(true),
		model.Int(0), model.Int(1), model.Int(-7), model.Int(math.MaxInt64), model.Int(math.MinInt64),
		model.Float(0.5), model.Float(-2.25), model.Float(math.Copysign(0, -1)), model.Float(-1e300),
		model.Str(""), model.Str("a"), model.Str("héllo, wörld"), model.Str(strings.Repeat("x", 63)),
		model.Str(strings.Repeat("long-", 40)),
	}
	for _, v := range corpus {
		h := fnv.New64a()
		h.Write(v.EncodeKey(nil))
		if want, got := mix64(h.Sum64()), hashValue(v); got != want {
			t.Errorf("hashValue(%v) = %#x, want %#x", v, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { hashValue(model.Str("short string")) }); allocs != 0 {
		t.Errorf("hashValue allocates %v times per call", allocs)
	}
}

// TestKMVUnionExact: sketching parts separately and merging them gives the
// sketch of the whole input, saturated or not.
func TestKMVUnionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 5, 300, 5000} {
		whole := NewKMV(0)
		parts := []*KMV{NewKMV(0), NewKMV(0), NewKMV(0)}
		for i := 0; i < n; i++ {
			h := rng.Uint64() >> uint(rng.Intn(4)) // skew some hashes low
			whole.Add(h)
			parts[rng.Intn(len(parts))].Add(h)
			if i%3 == 0 { // the same value seen by two parts
				parts[rng.Intn(len(parts))].Add(h)
			}
		}
		merged := &KMV{k: kmvK}
		var buf []uint64
		for _, p := range parts {
			buf = merged.union(p, buf)
		}
		if len(merged.hs) == 0 && len(whole.hs) == 0 {
			continue
		}
		if !reflect.DeepEqual(merged.hs, whole.hs) {
			t.Errorf("n=%d: union of parts differs from the whole sketch", n)
		}
	}
}

// TestVersionedTryGet: published statistics serve only their own stable
// epoch, odd (mid-mutation) epochs never serve, and publication never
// moves back to an older epoch.
func TestVersionedTryGet(t *testing.T) {
	var v Versioned
	if got := v.tryGet(4); got != nil {
		t.Fatal("empty Versioned served stats")
	}
	s := &Stats{Epoch: 4}
	v.publish(s)
	if got := v.tryGet(4); got != s {
		t.Fatal("published stats not served for their epoch")
	}
	if got := v.tryGet(6); got != nil {
		t.Fatal("stats served for a newer epoch")
	}
	v.publish(&Stats{Epoch: 2})
	if got := v.tryGet(4); got != s {
		t.Fatal("older publish displaced newer stats")
	}
	v.publish(&Stats{Epoch: 7})
	if got := v.tryGet(7); got != nil {
		t.Fatal("stats served for an odd epoch")
	}
}
