package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// fleet-api: the in-process HTTP control plane — monitor.APIHandler
// over a fleet.Manager, driven by Manager.Start as `vaxmon -serve`
// runs it — with a golden stamp VM. A closed loop of apiClients
// clients (its callers are orchestrators that wait for each reply)
// runs scripted lifecycles: clone → snapshot → halt → destroy, plus
// restore → destroy for a seed-chosen share, each for a seed-chosen
// tenant. This loads HTTP and registry dispatch, the fleet manager,
// the drive-loop mutex, core.Clone, checkpoint encode and decode, and
// DestroyVM page recycling; guest execution is background. It uses
// the memory layer the opposite way from fleet-run: snapshot reads
// frames, restore writes them, destroy frees them.
//
// One operation is one API request, timed by the client.

const (
	apiClients = 2
	apiQuantum = 5_000 // drive-loop quantum in steps, as monitor.Soak uses
	apiMemMB   = 64
)

type fleetAPI struct {
	spec     fleetAPISpec
	roundDur time.Duration // measured phase per round (0: scripted count)
	perRound int           // lifecycles per client when roundDur is 0
}

func newFleetAPI(o options) (rounder, error) {
	primeMemory(apiMemMB << 20)
	w := &fleetAPI{spec: genFleetAPI(o.seed, o.size)}
	if o.size == tiny {
		w.perRound = 3
	} else {
		w.roundDur = min(500*time.Millisecond, max(250*time.Millisecond, o.dur/5))
	}
	return w, nil
}

// apiClient is one closed-loop API consumer and its goroutine-local
// measurements (merged after the round).
type apiClient struct {
	base       string
	hc         *http.Client
	tr         *tracer
	ops        []float64
	routes     map[string][]float64 // traced rounds: latency per route
	snapKB     []float64
	attempted  int
	failures   []string
	lifecycles int
}

// call sends one request, times it, and checks the status is one the
// API documents for it. The body is decoded into out when non-nil.
func (c *apiClient) call(parent int64, traceID, route, method, path string, body, out any, want ...int) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	id := c.tr.id()
	if c.tr != nil {
		req.Header.Set(hdrTrace, traceID)
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	c.attempted++
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		if out != nil {
			err = json.NewDecoder(resp.Body).Decode(out)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	t1 := time.Now()
	us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
	c.ops = append(c.ops, us)
	c.tr.add(id, parent, traceID, "http."+route, t0, t1)
	if c.routes != nil {
		c.routes[route] = append(c.routes[route], us)
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w", method, path, err)
		c.failures = append(c.failures, err.Error())
		return 0, err
	}
	for _, s := range want {
		if resp.StatusCode == s {
			return s, nil
		}
	}
	err = fmt.Errorf("%s %s: status %d, want %v", method, path, resp.StatusCode, want)
	c.failures = append(c.failures, err.Error())
	return resp.StatusCode, err
}

// lifecycle runs one scripted lifecycle. A restore that finds its
// snapshot evicted (404) is not a failure, as in monitor.Soak.
func (c *apiClient) lifecycle(parent int64, traceID string, golden int, lc lifecycle) {
	t0 := time.Now()
	id := c.tr.id()
	defer func() { c.tr.add(id, parent, traceID, "lifecycle", t0, time.Now()) }()
	var vm fleet.VMInfo
	if _, err := c.call(id, traceID, "clone", "POST", fmt.Sprintf("/v1/vms/%d/clone", golden),
		fleet.Spec{Tenant: lc.Tenant}, &vm, http.StatusOK); err != nil {
		return
	}
	var snap fleet.SnapInfo
	if _, err := c.call(id, traceID, "snapshot", "POST", fmt.Sprintf("/v1/vms/%d/snapshot", vm.ID), nil, &snap, http.StatusOK); err != nil {
		return
	}
	c.snapKB = append(c.snapKB, float64(snap.Bytes)/1024)
	if _, err := c.call(id, traceID, "halt", "POST", fmt.Sprintf("/v1/vms/%d/halt", vm.ID), nil, nil, http.StatusOK); err != nil {
		return
	}
	if _, err := c.call(id, traceID, "destroy", "DELETE", fmt.Sprintf("/v1/vms/%d", vm.ID), nil, nil, http.StatusOK); err != nil {
		return
	}
	if lc.Restore {
		var rvm fleet.VMInfo
		status, err := c.call(id, traceID, "restore", "POST", "/v1/snapshots/"+snap.ID+"/restore", nil, &rvm,
			http.StatusOK, http.StatusNotFound)
		if err != nil {
			return
		}
		if status == http.StatusOK {
			if _, err := c.call(id, traceID, "destroy", "DELETE", fmt.Sprintf("/v1/vms/%d", rvm.ID), nil, nil, http.StatusOK); err != nil {
				return
			}
		}
	}
	c.lifecycles++
}

func (w *fleetAPI) round(tr *tracer, la *layerAcc) (roundResult, error) {
	var r roundResult
	root := tr.id()
	setupID := tr.id()
	t0 := time.Now()

	var opts []core.Option
	var rec *trace.Recorder
	if la != nil {
		rec = trace.NewRecorder(64)
		opts = append(opts, core.WithRecorder(rec))
	}
	var k *core.VMM
	newT := tr.timed(setupID, "fleet-api", "core.new", func() { k = core.New(apiMemMB<<20, core.Config{}, opts...) })
	la.sample("core.new_ms", float64(newT.Microseconds())/1000)
	mgr := fleet.NewManager(k, fleet.Config{Quantum: apiQuantum})
	mon := monitor.New(k.CPU)
	mon.VMM = k
	mon.Fleet = mgr
	var mu sync.Mutex
	var h http.Handler = monitor.APIHandler(mon, &mu)
	var hmu sync.Mutex
	var handlerUS []float64
	if tr != nil {
		api := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			t0 := time.Now()
			api.ServeHTTP(rw, req)
			t1 := time.Now()
			parent, _ := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
			tr.add(0, parent, req.Header.Get(hdrTrace), "monitor.handler", t0, t1)
			hmu.Lock()
			handlerUS = append(handlerUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
			hmu.Unlock()
		})
	}
	srv := httptest.NewServer(h)
	mgr.Start(&mu)
	defer func() {
		mgr.Stop()
		srv.Close()
		k.Release()
	}()

	admin := &apiClient{base: srv.URL, hc: srv.Client(), tr: tr}
	var golden fleet.VMInfo
	if _, err := admin.call(setupID, "setup", "create", "POST", "/v1/vms",
		fleet.Spec{Name: "golden", Workload: "stamp"}, &golden, http.StatusOK); err != nil {
		return r, fmt.Errorf("fleet-api: creating golden VM: %w", err)
	}
	warm := w.spec.script(-1)
	for i := 0; i < w.spec.Warmup; i++ {
		admin.lifecycle(setupID, fmt.Sprintf("warmup-%d", i), golden.ID, warm())
	}
	if len(admin.failures) > 0 {
		return r, fmt.Errorf("fleet-api: warm-up failed: %s", admin.failures[0])
	}
	var before fleet.FleetInfo
	if _, err := admin.call(setupID, "setup", "fleet", "GET", "/v1/fleet", nil, &before, http.StatusOK); err != nil {
		return r, err
	}
	t1 := time.Now()
	r.setup = t1.Sub(t0)
	tr.add(setupID, root, "fleet-api", "setup", t0, t1)

	// Measured phase: closed-loop clients until the round ends.
	guest := func() (uint64, uint64) {
		mu.Lock()
		defer mu.Unlock()
		return k.CPU.Stats.Instructions, k.CPU.Cycles
	}
	i0, c0 := guest()
	hmu.Lock()
	handlerUS = handlerUS[:0] // the handler samples only the measured phase
	hmu.Unlock()
	runID := tr.id()
	clients := make([]*apiClient, apiClients)
	end := t1.Add(w.roundDur)
	var wg sync.WaitGroup
	for ci := range clients {
		c := &apiClient{base: srv.URL, hc: srv.Client(), tr: tr}
		if la != nil {
			c.routes = map[string][]float64{}
		}
		clients[ci] = c
		wg.Add(1)
		go func(ci int, c *apiClient) {
			defer wg.Done()
			next := w.spec.script(ci)
			for j := 0; ; j++ {
				if w.roundDur > 0 && !time.Now().Before(end) || w.roundDur == 0 && j >= w.perRound {
					return
				}
				c.lifecycle(runID, fmt.Sprintf("c%d-%d", ci, j), golden.ID, next())
			}
		}(ci, c)
	}
	wg.Wait()
	t2 := time.Now()
	hmu.Lock()
	for _, us := range handlerUS {
		la.sample("monitor.handler_us", us)
	}
	hmu.Unlock()
	i1, c1 := guest()
	r.run = t2.Sub(t1)
	r.instrs, r.cycles = i1-i0, c1-c0
	tr.add(runID, root, "fleet-api", "run", t1, t2)

	for _, c := range clients {
		r.ops = append(r.ops, c.ops...)
		r.attempted += c.attempted
		r.failures = append(r.failures, c.failures...)
		r.lifecycles += c.lifecycles
	}

	// Checks: only the golden VM is left.
	checkID := tr.id()
	var after fleet.FleetInfo
	if _, err := admin.call(checkID, "check", "fleet", "GET", "/v1/fleet", nil, &after, http.StatusOK); err != nil {
		return r, err
	}
	r.attempted += len(after.VMs)
	for _, vm := range after.VMs {
		if vm.ID != golden.ID {
			r.failures = append(r.failures, fmt.Sprintf("fleet-api: vm%d (%s, %s) left behind", vm.ID, vm.Name, vm.State))
		}
	}
	if la != nil {
		mu.Lock()
		w.layers(k, rec, la, clients, before, after)
		mu.Unlock()
	}
	t3 := time.Now()
	tr.add(checkID, root, "fleet-api", "check", t2, t3)
	tr.add(root, 0, "fleet-api", "round", t0, t3)
	return r, nil
}

// layers reads the monitor's counters (under the drive mutex) and the
// clients' per-route latencies after a traced round.
func (w *fleetAPI) layers(k *core.VMM, rec *trace.Recorder, la *layerAcc, clients []*apiClient, before, after fleet.FleetInfo) {
	c := trace.Capture(k.CPU)
	m := trace.Capture(k.CPU.MMU)
	la.count("cpu.instructions", float64(c.Get("instructions")))
	la.count("cpu.cycles", float64(c.Get("cycles")))
	la.count("cpu.decode_hits", float64(c.Get("decode_hits")))
	la.count("cpu.decode_misses", float64(c.Get("decode_misses")))
	la.count("cpu.decode_invalidations", float64(c.Get("decode_invalidations")))
	la.count("mmu.translations", float64(m.Get("translations")))
	la.count("mmu.tlb_misses", float64(m.Get("tlb_misses")))
	la.count("core.world_switches", float64(trace.Capture(k).Get("world_switches")))
	la.count("core.vmm_cycles", float64(k.VMMCycles()))
	la.count("core.vm_traps", float64(c.Get("vm_traps")))
	// Destroyed VMs take their counters with them; the recorder keeps
	// one latency sample per shadow fill, KCALL and COW break of every
	// VM the round created.
	n := addRecorder(la, rec)
	la.count("core.shadow_fills", n["shadow_fill"])
	la.count("core.kcalls", n["kcall"])
	la.count("core.cow_breaks", n["cow_break"])
	la.sample("core.carved_pages", float64(after.CarvedPages))
	la.count("core.carved_growth_pages", float64(after.CarvedPages)-float64(before.CarvedPages))
	for _, cl := range clients {
		for route, xs := range cl.routes {
			la.samples["monitor."+route+"_us"] = append(la.samples["monitor."+route+"_us"], xs...)
		}
		la.samples["ckpt.snapshot_kb"] = append(la.samples["ckpt.snapshot_kb"], cl.snapKB...)
	}
}
