package main

import (
	"context"
	"path/filepath"

	"stopwatchsim/internal/gen"
)

// The §4 industrial instance's exact interpretation statistics. They are
// properties of the model, not of the engine: a change that only claims
// speed leaves them identical.
const (
	industrialJobs    = 12505
	industrialActions = 81140
	industrialDelays  = 2550
)

func industrialInput() ([]byte, error) { return xmlBytes(gen.IndustrialConfig()) }

func industrialDigest() (string, error) {
	b, err := industrialInput()
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// runIndustrial is the paper's §4 instance (12,505 jobs, 255 tasks, 5
// cores): one caller runs XML bytes → config.ReadXML → model.Build → one
// interpretation on the library's default backend → trace.Analyze. It
// ignores the seed.
func runIndustrial(ctx context.Context, e *env) (*report, error) {
	body, err := industrialInput()
	if err != nil {
		return nil, err
	}
	note, err := checkDigest(filepath.Join(e.root, "perfbench"), "industrial", e.seed, true, digest(body))
	if err != nil {
		return nil, err
	}
	e.notef("industrial: fixed paper instance, seed ignored; %s", note)
	rep := &report{}
	err = runSerial(ctx, e, rep, func(ctx context.Context, t *opTrace) (opResult, error) {
		v, err := analyzeConfig(ctx, t, body, false, 0)
		if err != nil {
			return opResult{}, err
		}
		want := verdict{Schedulable: true, Jobs: industrialJobs, Actions: industrialActions, Delays: industrialDelays}
		if v != want {
			rep.mismatch("industrial: got %+v, want %+v", v, want)
		}
		return opResult{}, nil
	})
	return rep, err
}
