package mc

import (
	"os"
	"testing"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
)

// counts is the exact outcome of one exhaustive exploration.
type counts struct {
	states, transitions, leaves int
	schedulable                 bool
}

func countsOf(res Result, schedulable bool) counts {
	return counts{res.States, res.Transitions, res.Leaves, schedulable}
}

// TestExplorePinnedCounts pins the explorer's exact output: the numbers of
// distinct states expanded, transitions fired and leaves reached, and the
// verdict. Any change to the visited-set key, the enumeration order or the
// successor computation that merges or splits states shows up here. Table 1
// at 14 jobs is pinned by TestFingerprintQuality.
func TestExplorePinnedCounts(t *testing.T) {
	for _, c := range []struct {
		jobs int
		want counts
	}{
		{10, counts{2134, 10328, 1, true}},
		{11, counts{4187, 22620, 1, true}},
		{12, counts{8294, 49256, 1, true}},
		{13, counts{16491, 106604, 1, true}},
	} {
		ok, res, err := CheckSchedulability(model.MustBuild(gen.Table1Config(c.jobs)), 0)
		if err != nil {
			t.Fatalf("table1-%d: %v", c.jobs, err)
		}
		if got := countsOf(res, ok); got != c.want || !res.Complete {
			t.Errorf("table1-%d: got %+v (complete %t), want %+v", c.jobs, got, res.Complete, c.want)
		}
	}

	f, err := os.Open("../../examples/quickstart/quickstart.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := config.ReadXML(f)
	if err != nil {
		t.Fatal(err)
	}
	ok, res, err := CheckSchedulability(model.MustBuild(sys), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := countsOf(res, ok), (counts{34, 30, 1, true}); got != want {
		t.Errorf("quickstart: got %+v, want %+v", got, want)
	}

	res, err = Explore(enumNet(t), Options{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := countsOf(res, res.Bad == ""), (counts{118, 126, 20, true}); got != want {
		t.Errorf("xta: got %+v, want %+v", got, want)
	}
}

// TestFingerprintQuality checks the visited-set fingerprint on Table 1 at
// 14 jobs, whose counts it pins too. Every expanded state is collected
// through BadState: the distinct exact AppendKey encodings, the distinct
// fingerprints and the distinct values of each 64-bit lane taken alone
// must all number States, so no two reached states share a fingerprint,
// nor even half of one. Then every single-word change of a reached product
// state (a location, clock, variable, the time or a monitor word) must
// change the fingerprint.
func TestFingerprintQuality(t *testing.T) {
	m := model.MustBuild(gen.Table1Config(14))
	failed := m.FailedVars()
	keys := make(map[string]struct{})
	fps := make(map[fingerprint]struct{})
	var lanes [2]map[uint64]struct{}
	lanes[0], lanes[1] = make(map[uint64]struct{}), make(map[uint64]struct{})
	var samples []*nsa.State
	res, err := Explore(m.Net, Options{Horizon: m.Horizon, BadState: func(s *nsa.State) string {
		keys[string(s.AppendKey(nil))] = struct{}{}
		fp := fingerprintOf(s, nil)
		fps[fp] = struct{}{}
		lanes[0][fp[0]] = struct{}{}
		lanes[1][fp[1]] = struct{}{}
		if len(keys)%4096 == 1 {
			samples = append(samples, s.Clone()) // s is recycled after the call
		}
		for _, v := range failed {
			if s.Vars[v] != 0 {
				return "deadline failure"
			}
		}
		return ""
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := countsOf(res, res.Bad == ""), (counts{32880, 229488, 1, true}); got != want || !res.Complete {
		t.Fatalf("table1-14: got %+v (complete %t), want %+v", got, res.Complete, want)
	}
	if len(keys) != res.States || len(fps) != res.States || len(lanes[0]) != res.States || len(lanes[1]) != res.States {
		t.Errorf("%d states: %d distinct keys, %d fingerprints, lanes %d and %d",
			res.States, len(keys), len(fps), len(lanes[0]), len(lanes[1]))
	}

	ms := [][]int64{{0, 3}, {-1}}
	for _, s := range samples {
		base := fingerprintOf(s, ms)
		words := []*int64{&s.Time, &ms[0][0], &ms[0][1], &ms[1][0]}
		for i := range s.Clocks {
			words = append(words, &s.Clocks[i])
		}
		for i := range s.Vars {
			words = append(words, &s.Vars[i])
		}
		for _, w := range words {
			for _, flip := range []int64{1, -1 << 63} {
				*w ^= flip
				if fingerprintOf(s, ms) == base {
					t.Errorf("t=%d: flipping %#x of one word keeps the fingerprint", s.Time, flip)
				}
				*w ^= flip
			}
		}
		for i := range s.Locs {
			s.Locs[i]++
			if fingerprintOf(s, ms) == base {
				t.Errorf("t=%d: changing location %d keeps the fingerprint", s.Time, i)
			}
			s.Locs[i]--
		}
	}
	if len(samples) < 8 {
		t.Errorf("only %d sampled states", len(samples))
	}
}
