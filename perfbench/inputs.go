package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"stopwatchsim/internal/config"
)

// Seeds. The fixed paper instances (industrial, table1) ignore the seed;
// the seeded workloads (service, explore) derive every input from it.
const (
	defaultSeed  = 1
	heldOutSeed  = 2
	digestFile   = "inputs.sha256"
	anySeedToken = "-"
)

// xmlBytes renders a configuration the way a client would send it.
func xmlBytes(sys *config.System) ([]byte, error) {
	var buf bytes.Buffer
	if err := sys.WriteXML(&buf); err != nil {
		return nil, fmt.Errorf("writing %s as XML: %w", sys.Name, err)
	}
	return buf.Bytes(), nil
}

// jsonBytes renders a configuration in the service's JSON codec.
func jsonBytes(sys *config.System) ([]byte, error) {
	var buf bytes.Buffer
	if err := sys.WriteJSONConfig(&buf); err != nil {
		return nil, fmt.Errorf("writing %s as JSON: %w", sys.Name, err)
	}
	return buf.Bytes(), nil
}

// digest hashes a workload's generated inputs, each part length-prefixed
// so that moving bytes between parts changes the digest.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordedDigests reads inputs.sha256: lines of "<workload> <seed|-> <sha256>".
func recordedDigests(dir string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(dir, digestFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", digestFile, line)
		}
		out[fs[0]+" "+fs[1]] = fs[2]
	}
	return out, sc.Err()
}

// checkDigest compares a workload's input digest with the recorded one. A
// fixed instance is recorded under "-"; a seeded workload under its seed.
// Seeds without a record are reported, not failed: any seed is a valid
// run, and the outputs are still checked against in-process references.
func checkDigest(dir, workload string, seed int64, fixed bool, got string) (note string, err error) {
	rec, err := recordedDigests(dir)
	if err != nil {
		return "", fmt.Errorf("reading input digests: %w", err)
	}
	key := workload + " " + strconv.FormatInt(seed, 10)
	if fixed {
		key = workload + " " + anySeedToken
	}
	want, ok := rec[key]
	if !ok {
		return fmt.Sprintf("inputs %s (no recorded digest for seed %d)", got[:12], seed), nil
	}
	if want != got {
		return "", fmt.Errorf("%s inputs changed: digest %s, recorded %s (a change to the generators or codecs changes the workload)", workload, got, want)
	}
	return fmt.Sprintf("inputs %s match the recorded digest", got[:12]), nil
}
