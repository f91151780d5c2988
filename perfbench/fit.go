package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// fitCase is one sspc invocation and the in-process fit it must reproduce.
type fitCase struct {
	args  []string
	ds    *dataset.Dataset
	opts  core.Options
	truth []int
	floor float64 // lowest acceptable ARI against the truth
}

// reference fits in-process exactly as sspc -validate does.
func (fc *fitCase) reference() (*cluster.Result, error) {
	res, _, err := core.RunValidated(fc.ds, fc.opts, 0)
	return res, err
}

// perObject renders a result the way sspc prints its per-object lines.
func perObject(res *cluster.Result) []byte {
	var b bytes.Buffer
	for i, a := range res.Assignments {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(a))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkARI computes the result's ARI against the truth and rejects one
// below the floor.
func (fc *fitCase) checkARI(res *cluster.Result) (float64, error) {
	ari, err := eval.ARI(fc.truth, res.Assignments)
	if err != nil {
		return 0, err
	}
	if ari < fc.floor {
		return ari, fmt.Errorf("ARI %.4f is below the floor %.2f", ari, fc.floor)
	}
	return ari, nil
}

// runSSPC runs one sspc process and returns its wall time from start to
// exit and its peak resident set. Its per-object output must equal want
// byte for byte, followed by the summary lines.
//
// The peak is read from /proc while the process runs: the kernel's
// ru_maxrss of a child started by a Go program also counts the parent's
// resident set at the time of the start, so rusage cannot give it.
func runSSPC(bin string, args []string, want []byte) (wall, rssMB float64, err error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-tick.C:
			if mb := procStatusMB(cmd.Process.Pid, "VmHWM:"); mb > 0 {
				rssMB = mb
			}
		}
	}
	wall = time.Since(start).Seconds()
	if err != nil {
		return wall, 0, fmt.Errorf("sspc: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	got := stdout.Bytes()
	if !bytes.HasPrefix(got, want) || !bytes.HasPrefix(got[len(want):], []byte("# ")) {
		return wall, rssMB, fmt.Errorf("sspc: per-object output differs from the in-process fit")
	}
	return wall, rssMB, nil
}

// runCommand runs a helper program (datagen) and returns its wall time.
func runCommand(bin string, args ...string) (float64, error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return wall, fmt.Errorf("%s: %v: %s", bin, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return wall, nil
}
