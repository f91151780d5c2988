package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/model"
)

// pollEvery is how often a fit job is polled until it is done. Fits take
// about a second, so a poll adds at most 5% to one, and 20 polls a second
// are small next to the /assign ladder.
const pollEvery = 50 * time.Millisecond

// daemon is one running sspcd process and the HTTP clients that talk to it.
// /assign requests share at most conns connections (reads); everything
// else, fits and their polls included, goes over one more connection (ctl),
// so a poll never holds a connection a read is waiting for.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	reads  *http.Client
	ctl    *http.Client
	done   chan struct{}
	stderr bytes.Buffer
	polls  atomic.Int64 // GET /jobs/{id} requests sent
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// stopAll stops every daemon still running; main calls it on every exit.
func stopAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon starts sspcd on a free loopback port and waits until it
// answers /healthz. Another process may take the port between the probe
// and sspcd's listen, so a start that fails is tried again on a new port.
func startDaemon(bin string, conns int) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = startDaemonOnce(bin, conns); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startDaemonOnce(bin string, conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	client := func(conns int) *http.Client {
		return &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		}
	}
	d := &daemon{base: "http://127.0.0.1:" + port, reads: client(conns), ctl: client(1), done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port)
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() { d.cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.ctl.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("sspcd exited before answering: %s", d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("sspcd did not answer /healthz within 20s")
		}
	}
}

// procStatusMB reads a size field of /proc/<pid>/status, such as VmRSS:
// (resident now) or VmHWM: (peak resident), in MB; 0 when it cannot.
func procStatusMB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop shuts the daemon down gracefully, kills it after 15s and waits for
// it to exit.
func (d *daemon) stop() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.reads.CloseIdleConnections()
	d.ctl.CloseIdleConnections()
}

// do sends one request over the control connection and returns the
// response body; a status other than want is an error.
func (d *daemon) do(method, path string, body []byte, want int) ([]byte, error) {
	return d.send(d.ctl, method, path, body, want)
}

func (d *daemon) send(c *http.Client, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// fitRequest is the part of sspcd's POST /fit body the benchmark sends.
type fitRequest struct {
	Algo     string `json:"algo"`
	K        int    `json:"k"`
	DataFile string `json:"data_file"`
	Seed     int64  `json:"seed"`
	Restarts int    `json:"restarts,omitempty"`
	Workers  int    `json:"workers,omitempty"`
}

type jobState struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Model  string `json:"model"`
	Error  string `json:"error"`
	Cached bool   `json:"cached"`
}

// fit submits a fit job and polls it every pollEvery until it is done; it
// returns the registry key of the fitted model. A cached answer is an
// error, because the benchmark always asks for a fit the registry has not
// seen.
func (d *daemon) fit(req fitRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	data, err := d.do(http.MethodPost, "/fit", body, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var j jobState
	for {
		if err := json.Unmarshal(data, &j); err != nil {
			return "", fmt.Errorf("job answer: %v", err)
		}
		switch {
		case j.Cached:
			return "", fmt.Errorf("job %s: answered from the registry, not fitted", j.ID)
		case j.State == "done":
			return j.Model, nil
		case j.State != "running":
			return "", fmt.Errorf("job %s: %s: %s", j.ID, j.State, j.Error)
		}
		time.Sleep(pollEvery)
		d.polls.Add(1)
		if data, err = d.do(http.MethodGet, "/jobs/"+j.ID, nil, http.StatusOK); err != nil {
			return "", err
		}
	}
}

// upload registers encoded model bytes and returns the model's key.
func (d *daemon) upload(enc []byte) (string, error) {
	data, err := d.do(http.MethodPost, "/models", enc, http.StatusOK)
	if err != nil {
		return "", err
	}
	var r struct{ Key string }
	if err := json.Unmarshal(data, &r); err != nil {
		return "", err
	}
	return r.Key, nil
}

func (d *daemon) modelCount() (int, error) {
	data, err := d.do(http.MethodGet, "/models", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	var list []json.RawMessage
	if err := json.Unmarshal(data, &list); err != nil {
		return 0, err
	}
	return len(list), nil
}

// reads holds the /assign traffic of a run, encoded before timing starts,
// and the answers precomputed from the served model.
type reads struct {
	bodies [][]byte
	want   [][]int
	all    []int // every held-out row's answer, in order
	model  []byte
}

// prepareReads downloads the served model, decodes it in-process and
// precomputes the answer to every held-out batch.
func prepareReads(d *daemon, key string, g *gen, dim int) (*reads, error) {
	enc, err := d.do(http.MethodGet, "/models/"+key, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	m, err := model.Decode(enc)
	if err != nil {
		return nil, err
	}
	a, err := m.Assigner()
	if err != nil {
		return nil, err
	}
	r := &reads{model: enc}
	for b := 0; b < heldBatches; b++ {
		rows := g.heldBatch(b, dim)
		body, err := json.Marshal(map[string]any{"model": key, "rows": rows})
		if err != nil {
			return nil, err
		}
		out := make([]int, batchRows)
		if err := a.AssignBatch(g.Held[b*batchRows*dim:(b+1)*batchRows*dim], out); err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
		r.want = append(r.want, out)
		r.all = append(r.all, out...)
	}
	return r, nil
}

// assign sends held-out batch i mod heldBatches and checks the answer.
func (d *daemon) assign(r *reads, i int) error {
	b := i % len(r.bodies)
	data, err := d.send(d.reads, http.MethodPost, "/assign", r.bodies[b], http.StatusOK)
	if err != nil {
		return err
	}
	var got struct{ Assignments []int }
	if err := json.Unmarshal(data, &got); err != nil {
		return err
	}
	if !reflect.DeepEqual(got.Assignments, r.want[b]) {
		return fmt.Errorf("/assign batch %d: answer differs from the served model's", b)
	}
	return nil
}

// writer submits one fit per second, open loop, rotating over files, each
// on a fresh seed so the registry never answers it from cache, and records
// each write's time from its due time until its job is done.
type writer struct {
	d     *daemon
	rec   *recorder
	files []string
	seed  int64
	stop  chan struct{}
	done  chan struct{}

	mu    sync.Mutex
	times []float64
	errs  []error
	wg    sync.WaitGroup
}

func startWriter(d *daemon, rec *recorder, files []string, seed int64) *writer {
	w := &writer{d: d, rec: rec, files: files, seed: seed, stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *writer) loop() {
	defer close(w.done)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second)
		select {
		case <-w.stop:
			return
		case <-time.After(time.Until(due)):
		}
		w.wg.Add(1)
		go func(i int) {
			defer w.wg.Done()
			_, err := w.d.fit(fitRequest{Algo: "sspc", K: classes, DataFile: w.files[i%len(w.files)],
				Seed: subSeed(w.seed, uint64(i)), Workers: 1})
			w.rec.add(0, fmt.Sprintf("write-%d", i), "sspcd.fit_job", due, time.Now())
			w.mu.Lock()
			defer w.mu.Unlock()
			if err != nil {
				w.errs = append(w.errs, err)
				return
			}
			w.times = append(w.times, time.Since(due).Seconds())
		}(i)
	}
}

// finish stops submitting and waits for every submitted write to end.
func (w *writer) finish() {
	close(w.stop)
	<-w.done
	w.wg.Wait()
}
