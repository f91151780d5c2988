package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/synth"
)

// TestMain lets a test re-run this binary as the sspc command itself: with
// SSPC_RUN_MAIN=1 it executes main with the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SSPC_RUN_MAIN") == "1" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("SSPC_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSSPC runs the command with args and returns its standard output.
func runSSPC(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SSPC_RUN_MAIN=1", "SSPC_ARGS="+strings.Join(args, " "))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("sspc %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestClaransDefaultRestartsPinned pins `sspc -algo clarans` without
// -restarts byte for byte: an unset restart count runs the paper's two
// local searches, and the per-object assignments, score and iteration total
// of that run are fixed.
func TestClaransDefaultRestartsPinned(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 120, D: 6, K: 3, AvgDims: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < gt.Data.N(); i++ {
		for _, v := range gt.Data.Row(i) {
			fmt.Fprintf(&sb, "%v,", v)
		}
		fmt.Fprintf(&sb, "%d\n", gt.Labels[i])
	}
	path := filepath.Join(t.TempDir(), "clarans.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSSPC(t, "-in", path, "-truth", "-k", "3", "-algo", "clarans", "-seed", "4", "-workers", "2")
	sum := sha256.Sum256([]byte(out))
	const want = "864af57b03ab07fd9e05fcfccd053c435f946a9706f5f85a99339586ef88605d"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("sspc -algo clarans output sha256 = %s, want %s\n%s", got, want, out)
	}
}
