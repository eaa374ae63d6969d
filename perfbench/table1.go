package main

import (
	"context"
	"fmt"
	"path/filepath"

	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/mc"
	"stopwatchsim/internal/nsa"
)

// table1Jobs is the Table 1 size of the table1 workload: large enough
// that exhaustive model checking is more than 99% of the op, small enough
// for dozens of ops in a run.
const table1Jobs = 13

// table1States and table1Transitions are the exact sizes of the
// exhaustive exploration of Table 1's configuration per job count.
var (
	table1States      = map[int]int{10: 2134, 11: 4262, 12: 8294, 13: 16491, 14: 32880}
	table1Transitions = map[int]int{10: 10328, 11: 22608, 12: 49256, 13: 106604, 14: 229488}
)

func table1Input(jobs int) ([]byte, error) { return xmlBytes(gen.Table1Config(jobs)) }

func table1Digest(jobs int) (string, error) {
	b, err := table1Input(jobs)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// runTable1 is Table 1's configuration at one fixed size: one caller runs
// XML bytes → config.ReadXML → model.Build → mc.CheckSchedulability, and
// cross-checks the exhaustive verdict against one interpretation of the
// same model. It ignores the seed.
func runTable1(ctx context.Context, e *env) (*report, error) {
	wantStates, ok := table1States[e.t1Jobs]
	if !ok {
		return nil, fmt.Errorf("no recorded state count for %d jobs", e.t1Jobs)
	}
	wantTrans := table1Transitions[e.t1Jobs]
	body, err := table1Input(e.t1Jobs)
	if err != nil {
		return nil, err
	}
	if e.t1Jobs == table1Jobs {
		note, err := checkDigest(filepath.Join(e.root, "perfbench"), "table1", e.seed, true, digest(body))
		if err != nil {
			return nil, err
		}
		e.notef("table1: fixed paper instance (%d jobs), seed ignored; %s", e.t1Jobs, note)
	}
	rep := &report{}
	err = runSerial(ctx, e, rep, func(ctx context.Context, t *opTrace) (opResult, error) {
		sys, err := parseConfig(t, body, false)
		if err != nil {
			return opResult{}, err
		}
		m, err := buildModel(t, sys)
		if err != nil {
			return opResult{}, err
		}
		var (
			ok  bool
			res mc.Result
		)
		if err := t.timeAlloc("mc.check_ms", "mc.alloc_mb", func() (err error) {
			ok, res, err = mc.CheckSchedulabilityContext(ctx, m, nsa.Budget{})
			return err
		}); err != nil {
			return opResult{}, err
		}
		single, err := interpret(ctx, t, sys, m, 0)
		if err != nil {
			return opResult{}, err
		}
		if ok != single.Schedulable || res.States != wantStates || res.Transitions != wantTrans || !res.Complete {
			rep.mismatch("table1 %d jobs: mc verdict %t (%d states, %d transitions, complete %t), single run %t; want %d states, %d transitions",
				e.t1Jobs, ok, res.States, res.Transitions, res.Complete, single.Schedulable, wantStates, wantTrans)
		}
		if t != nil {
			t.set("mc.states", float64(res.States))
			t.set("mc.transitions", float64(res.Transitions))
			t.set("mc.us_per_state", t.Timed["mc.check_ms"]*1000/float64(res.States))
		}
		return opResult{}, nil
	})
	return rep, err
}
