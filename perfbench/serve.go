package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/obs"
	"halo/internal/profile"
	"halo/internal/profstore"
	"halo/internal/service"
	"halo/internal/workloads"
)

// servePrograms are uploaded to halod in set-up; art and povray are the
// fastest programs to optimise, so request latency is not one job's time.
var servePrograms = []string{"art", "povray"}

const (
	trainSeeds       = 3   // training profiles per program
	roundPerClient   = 500 // requests per client in one round
	serveClients     = 2
	minRounds        = 2
	coldOptimizeRate = 4  // one optimize in coldOptimizeRate is a new key
	serveVerifySeeds = 16 // the served artifacts are small: measure more seeds
)

// serveProg is one program as halod stores it, with its training profiles
// and every merge of two or more of them.
type serveProg struct {
	w       workloads.Workload
	prog    *isa.Program // decoded from image, as the server decodes it
	image   []byte
	id      string
	blobs   map[string][]byte // profile id → image, uploaded and merged
	train   []string          // profile id per training seed; seeds may agree
	merges  [][]string        // merge requests, by input ids
	mergeID []string          // expected id of each merge
}

// serveState is everything set-up leaves for the timed section.
type serveState struct {
	progs  []*serveProg
	srv    *service.Server
	ts     *httptest.Server
	defKey []optKey // one default-config key per program
	want   map[string]artifact
	wantMu sync.Mutex
}

func (st *serveState) close() {
	st.ts.Close()
	st.srv.Close()
}

// optKey is an optimize request as the benchmark chose it.
type optKey struct {
	prog     int
	profiles []string
	cfg      service.OptimizeConfig
}

func (k optKey) String() string {
	img, _ := json.Marshal(k.cfg) // fixed field order
	return fmt.Sprintf("%d|%s|%s", k.prog, strings.Join(k.profiles, ","), img)
}

type artifact struct{ binary, policy []byte }

func hashID(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// expectedArtifact computes locally what halod must serve for a key: the
// profiles decoded (and merged when several), OptimizeFromProfile, the
// rewritten binary's image and the policy document.
func (st *serveState) expectedArtifact(k optKey) (artifact, error) {
	st.wantMu.Lock()
	a, ok := st.want[k.String()]
	st.wantMu.Unlock()
	if ok {
		return a, nil
	}
	sp := st.progs[k.prog]
	profs := make([]*profile.Profile, len(k.profiles))
	for i, id := range k.profiles {
		p, err := profstore.Decode(sp.blobs[id])
		if err != nil {
			return artifact{}, err
		}
		profs[i] = p
	}
	prof := profs[0]
	if len(profs) > 1 {
		var err error
		if prof, err = profstore.MergeWithCoverage(profstore.DefaultCoverage, profs...); err != nil {
			return artifact{}, err
		}
	}
	prof.Prog = sp.prog
	cfg := core.Config{SynthesisWorkers: 1}
	cfg.Group.MergeTol = k.cfg.MergeTol
	cfg.Group.GroupThreshold = k.cfg.GroupThreshold
	cfg.Group.MaxGroups = k.cfg.MaxGroups
	opt, err := core.OptimizeFromProfile(sp.prog, prof, cfg)
	if err != nil {
		return artifact{}, err
	}
	if a.binary, err = opt.Rewrite.Prog.Encode(); err != nil {
		return artifact{}, err
	}
	pol := service.PolicyDoc{Program: sp.prog.Name, NumBits: opt.Rewrite.NumBits, Sites: map[string]int{}}
	for site, bit := range opt.Rewrite.SiteBits {
		pol.Sites[site.String()] = bit
	}
	for _, sel := range opt.BitSelectors {
		pol.Selectors = append(pol.Selectors, service.PolicySel{Group: sel.Group, Conj: sel.Conj})
	}
	if a.policy, err = json.MarshalIndent(pol, "", "  "); err != nil {
		return artifact{}, err
	}
	st.wantMu.Lock()
	st.want[k.String()] = a
	st.wantMu.Unlock()
	return a, nil
}

// prepareServe builds and profiles the programs, computes the merges and
// the default-config artifacts locally, starts halod and uploads the
// programs and profiles. It also returns the time spent in the local
// pipeline: profiling, merging and synthesising the default artifacts.
func prepareServe(seed uint64) (*serveState, time.Duration, error) {
	st := &serveState{want: map[string]artifact{}}
	var optimize time.Duration
	for i, name := range servePrograms {
		w := workloads.MustGet(name)
		img, err := w.Build(w.TestScale).Encode()
		if err != nil {
			return nil, 0, err
		}
		prog, err := isa.Decode(img)
		if err != nil {
			return nil, 0, err
		}
		sp := &serveProg{w: w, prog: prog, image: img, id: hashID(img), blobs: map[string][]byte{}}
		start := cpuClock()
		for s := 0; s < trainSeeds; s++ {
			prof, err := core.Profile(prog, core.Config{ProfileSeed: derive(seed, "train", i*trainSeeds+s)})
			if err != nil {
				return nil, 0, err
			}
			blob, err := profstore.Encode(prof)
			if err != nil {
				return nil, 0, err
			}
			sp.train = append(sp.train, hashID(blob))
			sp.blobs[hashID(blob)] = blob
		}
		// Every merge of two or more training profiles.
		for mask := 1; mask < 1<<len(sp.train); mask++ {
			var ids []string
			var profs []*profile.Profile
			for b, id := range sp.train {
				if mask&(1<<b) != 0 {
					ids = append(ids, id)
					p, err := profstore.Decode(sp.blobs[id])
					if err != nil {
						return nil, 0, err
					}
					profs = append(profs, p)
				}
			}
			if len(ids) < 2 {
				continue
			}
			merged, err := profstore.MergeWithCoverage(profstore.DefaultCoverage, profs...)
			if err != nil {
				return nil, 0, err
			}
			blob, err := profstore.Encode(merged)
			if err != nil {
				return nil, 0, err
			}
			sp.merges = append(sp.merges, ids)
			sp.mergeID = append(sp.mergeID, hashID(blob))
			sp.blobs[hashID(blob)] = blob
		}
		st.progs = append(st.progs, sp)
		k := optKey{prog: i, profiles: []string{sp.mergeID[len(sp.mergeID)-1]}}
		if _, err := st.expectedArtifact(k); err != nil {
			return nil, 0, err
		}
		st.defKey = append(st.defKey, k)
		optimize += cpuSince(start)
	}

	st.srv = service.New(service.Config{Workers: 2, TrainingWorkers: 1})
	st.ts = httptest.NewServer(st.srv)
	c := newClient(st.ts.URL)
	defer c.close()
	for _, sp := range st.progs {
		var up struct{ ID string }
		if err := c.do("POST", "/v1/programs", sp.image, &up); err != nil || up.ID != sp.id {
			st.close()
			return nil, 0, fmt.Errorf("uploading %s: id %q, %v", sp.w.Name, up.ID, err)
		}
		for _, id := range sp.train {
			if err := c.do("POST", "/v1/profiles", sp.blobs[id], &up); err != nil || up.ID != id {
				st.close()
				return nil, 0, fmt.Errorf("uploading a %s profile: id %q, %v", sp.w.Name, up.ID, err)
			}
		}
		for m, ids := range sp.merges {
			body, _ := json.Marshal(map[string]any{"profiles": ids})
			if err := c.do("POST", "/v1/profiles/merge", body, &up); err != nil || up.ID != sp.mergeID[m] {
				st.close()
				return nil, 0, fmt.Errorf("merging %s profiles: id %q, %v", sp.w.Name, up.ID, err)
			}
		}
	}
	return st, optimize, nil
}

// client is one closed-loop client with its own connection.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes the JSON reply into out; a non-2xx
// reply is an error.
func (c *client) do(method, path string, body []byte, out any) error {
	raw, err := c.raw(method, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (c *client) raw(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// jobStatus is the part of halod's job status the clients read.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Result    *struct {
		Groups int        `json:"groups"`
		Stages []obs.Span `json:"stages"`
	} `json:"result"`
}

// fetched is one served binary or policy, checked after the timed section.
type fetched struct {
	key    optKey
	policy bool
	sum    [32]byte
}

// clientLog is what one client recorded in a round.
type clientLog struct {
	opsMs   []float64
	route   map[string][]float64 // per-route latency (ms), traced rounds
	stages  map[string]float64   // cold-job pipeline spans (s), traced rounds
	groups  float64
	fetches []fetched
	tally   tally
}

// clientState is what a client carries across rounds.
type clientState struct {
	rng  *rand.Rand
	keys []optKey // distinct keys this client has requested
	jobs []jobRef
}

// jobRef is a settled optimize job and the key it was requested with.
type jobRef struct {
	id  string
	key optKey
}

// round runs n closed-loop requests from one client.
func (st *serveState) round(c *client, cs *clientState, n int, traced bool) *clientLog {
	log := &clientLog{route: map[string][]float64{}, stages: map[string]float64{}}
	for i := 0; i < n; i++ {
		start := time.Now()
		route, err := st.request(c, cs, log)
		d := time.Since(start)
		log.opsMs = append(log.opsMs, ms(d))
		log.tally.check(err == nil, "%s: %v", route, err)
		if traced {
			log.route[route] = append(log.route[route], ms(d))
		}
	}
	return log
}

// The mix weights the four request types as the halod client flow in the
// repository's README.md does: two profile uploads, one merge, one
// optimize with a wait, and two fetches (the binary and the policy) of the
// job just optimised. The program is uploaded once, in set-up.
const (
	mixUpload   = 2
	mixMerge    = 1
	mixOptimize = 1
	mixFetch    = 2
)

// request sends one request of the seeded mix and returns its route.
func (st *serveState) request(c *client, cs *clientState, log *clientLog) (string, error) {
	r := cs.rng.IntN(mixUpload + mixMerge + mixOptimize + mixFetch)
	sp := st.progs[cs.rng.IntN(len(st.progs))]
	switch {
	case r < mixUpload: // profile upload (content-addressed: re-uploads dedupe)
		id := sp.train[cs.rng.IntN(len(sp.train))]
		var up struct{ ID string }
		if err := c.do("POST", "/v1/profiles", sp.blobs[id], &up); err != nil {
			return "upload", err
		}
		if up.ID != id {
			return "upload", fmt.Errorf("profile stored as %s, want %s", up.ID, id)
		}
		return "upload", nil
	case r < mixUpload+mixMerge: // profile merge
		m := cs.rng.IntN(len(sp.merges))
		body, _ := json.Marshal(map[string]any{"profiles": sp.merges[m]})
		var up struct{ ID string }
		if err := c.do("POST", "/v1/profiles/merge", body, &up); err != nil {
			return "merge", err
		}
		if up.ID != sp.mergeID[m] {
			return "merge", fmt.Errorf("merged profile %s, want %s", up.ID, sp.mergeID[m])
		}
		return "merge", nil
	case r < mixUpload+mixMerge+mixOptimize || len(cs.jobs) == 0: // optimize, then wait for the job
		return st.optimize(c, cs, log)
	default: // fetch the binary or policy of the client's latest job
		j := cs.jobs[len(cs.jobs)-1]
		policy := cs.rng.IntN(2) == 0
		path := "/v1/jobs/" + j.id + "/binary"
		if policy {
			path = "/v1/jobs/" + j.id + "/policy"
		}
		body, err := c.raw("GET", path, nil)
		if err != nil {
			return "fetch", err
		}
		log.fetches = append(log.fetches, fetched{key: j.key, policy: policy, sum: sha256.Sum256(body)})
		return "fetch", nil
	}
}

// optimize sends an optimize request: three in four repeat one of the
// client's earlier keys, the rest vary merge_tol, group_threshold or
// max_groups so they miss the cache.
func (st *serveState) optimize(c *client, cs *clientState, log *clientLog) (string, error) {
	var k optKey
	if len(cs.keys) > 0 && cs.rng.IntN(coldOptimizeRate) != 0 {
		k = cs.keys[cs.rng.IntN(len(cs.keys))]
	} else {
		k.prog = cs.rng.IntN(len(st.progs))
		sp := st.progs[k.prog]
		switch cs.rng.IntN(3) {
		case 0:
			k.profiles = []string{sp.train[cs.rng.IntN(len(sp.train))]}
		case 1:
			k.profiles = []string{sp.mergeID[cs.rng.IntN(len(sp.mergeID))]}
		default:
			k.profiles = sp.merges[cs.rng.IntN(len(sp.merges))]
		}
		switch cs.rng.IntN(3) {
		case 0:
			k.cfg.MergeTol = 0.01 * float64(1+cs.rng.IntN(200))
		case 1:
			k.cfg.GroupThreshold = 0.0001 * float64(1+cs.rng.IntN(200))
		default:
			k.cfg.MaxGroups = 1 + cs.rng.IntN(200)
		}
		cs.keys = append(cs.keys, k)
	}
	body, _ := json.Marshal(service.OptimizeRequest{
		Program:  st.progs[k.prog].id,
		Profiles: k.profiles,
		Config:   k.cfg,
	})
	var js jobStatus
	if err := c.do("POST", "/v1/optimize", body, &js); err != nil {
		return "optimize_cold", err
	}
	route := "optimize_cached"
	if !js.Cached {
		route = "optimize_cold"
	}
	coalesced := js.Coalesced
	if js.State != "done" {
		if err := c.do("GET", "/v1/jobs/"+js.ID+"?wait=1", nil, &js); err != nil {
			return route, err
		}
	}
	if js.State != "done" {
		return route, fmt.Errorf("job %s settled %s", js.ID, js.State)
	}
	if route == "optimize_cold" && !coalesced && js.Result != nil {
		for _, sp := range js.Result.Stages {
			log.stages[sp.Name] += float64(sp.DurNs) / 1e9
		}
		log.groups += float64(js.Result.Groups)
	}
	cs.jobs = append(cs.jobs, jobRef{js.ID, k})
	return route, nil
}

// serveRound runs one round on both clients at once and merges the logs.
func (st *serveState) serveRound(clients []*client, states []*clientState, traced bool) *clientLog {
	logs := make([]*clientLog, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = st.round(clients[i], states[i], roundPerClient, traced)
		}(i)
	}
	wg.Wait()
	all := &clientLog{route: map[string][]float64{}, stages: map[string]float64{}}
	for _, l := range logs {
		all.opsMs = append(all.opsMs, l.opsMs...)
		for r, xs := range l.route {
			all.route[r] = append(all.route[r], xs...)
		}
		for s, x := range l.stages {
			all.stages[s] += x
		}
		all.groups += l.groups
		all.fetches = append(all.fetches, l.fetches...)
		mergeTally(&all.tally, &l.tally)
	}
	return all
}

// checkFetches compares every served binary and policy with the artifact
// computed locally for the same key.
func (st *serveState) checkFetches(t *tally, fs []fetched) error {
	for _, f := range fs {
		want, err := st.expectedArtifact(f.key)
		if err != nil {
			return err
		}
		exp := want.binary
		if f.policy {
			exp = want.policy
		}
		t.check(f.sum == sha256.Sum256(exp), "served %s for %s differs from OptimizeFromProfile's",
			map[bool]string{false: "binary", true: "policy"}[f.policy], f.key)
	}
	return nil
}

// verifyServed fetches the default-config artifact of each program from
// halod, decodes it, and measures the served binary under the served
// policy against the original under jemalloc.
func (st *serveState) verifyServed(t *tally, mseed uint64, sim *simAgg) error {
	c := newClient(st.ts.URL)
	defer c.close()
	for i, k := range st.defKey {
		sp := st.progs[i]
		body, _ := json.Marshal(service.OptimizeRequest{Program: sp.id, Profiles: k.profiles})
		var js jobStatus
		if err := c.do("POST", "/v1/optimize", body, &js); err != nil {
			return err
		}
		if js.State != "done" {
			if err := c.do("GET", "/v1/jobs/"+js.ID+"?wait=1", nil, &js); err != nil {
				return err
			}
		}
		bin, err := c.raw("GET", "/v1/jobs/"+js.ID+"/binary", nil)
		if err != nil {
			return err
		}
		polJSON, err := c.raw("GET", "/v1/jobs/"+js.ID+"/policy", nil)
		if err != nil {
			return err
		}
		want, err := st.expectedArtifact(k)
		if err != nil {
			return err
		}
		t.check(bytes.Equal(bin, want.binary) && bytes.Equal(polJSON, want.policy),
			"%s: served default artifact differs from OptimizeFromProfile's", sp.w.Name)
		rewritten, err := isa.Decode(bin)
		if err != nil {
			return fmt.Errorf("%s: served binary: %w", sp.w.Name, err)
		}
		var doc service.PolicyDoc
		if err := json.Unmarshal(polJSON, &doc); err != nil {
			return fmt.Errorf("%s: served policy: %w", sp.w.Name, err)
		}
		pol := measure.Policy{Kind: measure.HALO, Rewritten: rewritten, NumBits: doc.NumBits, Halloc: hallocConfig(sp.w)}
		for _, s := range doc.Selectors {
			pol.Selectors = append(pol.Selectors, halloc.BitSelector{Group: s.Group, Conj: s.Conj})
		}
		jem, err := measure.Run(sp.prog, jemalloc, mseed, machine)
		if err != nil {
			return err
		}
		halo, err := measure.Run(sp.prog, pol, mseed, machine)
		if err != nil {
			return err
		}
		checkPair(t, sp.w.Name, jem, halo)
		sim.add(sp.w.Name, jem, halo)
	}
	return nil
}

func runServe(seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var st *serveState
	var optimizeS []float64
	reps := 9 // set-up is short: more repetitions steady its median
	if trace {
		reps = 1
	}
	setup, err := setupReps(reps, func(sp speed) error {
		if st != nil {
			st.close()
		}
		s, d, err := prepareServe(seed)
		st = s
		optimizeS = append(optimizeS, sp.seconds(d))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	clients := make([]*client, serveClients)
	states := make([]*clientState, serveClients)
	for i := range clients {
		clients[i] = newClient(st.ts.URL)
		defer clients[i].close()
		states[i] = &clientState{rng: rand.New(rand.NewPCG(derive(seed, "client", i), derive(seed, "mix", i)))}
	}
	if trace {
		return st.traceServe(out, clients, states, budget)
	}
	out.metrics["setup_s"] = setup
	out.metrics["optimize_s"] = median(optimizeS)

	// Request latency is the wall time the client sees, scaled by the share
	// of the round the process was running and by the reference, so time
	// the host took the CPU away is not counted. That also removes time a
	// request waits idle inside halod (on a lock, a poll or a busy worker):
	// the traced run's service.wall_* metrics keep it. A round of 1000
	// requests has ten beyond its 99th percentile; the tail and the rate
	// are medians over rounds, so a burst of host noise moves one round.
	var allocMB, opsMs, p99, rate []float64
	var fetches []fetched
	err = timedPasses(budget, minRounds, func(k int) error {
		sp := calibrate()
		mark := markHeap()
		start, cpu := time.Now(), cpuClock()
		l := st.serveRound(clients, states, false)
		wall, busy := time.Since(start), cpuSince(cpu)
		rate = append(rate, float64(len(l.opsMs))/sp.seconds(busy))
		allocMB = append(allocMB, mark.allocMB())
		round := (sp * speed(busy.Seconds()/wall.Seconds())).scaled(l.opsMs)
		p99 = append(p99, quantile(round, 0.99))
		opsMs = append(opsMs, round...)
		fetches = append(fetches, l.fetches...)
		mergeTally(&out.tally, &l.tally)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["alloc_mb"] = median(allocMB)
	out.metrics["request_p50_ms"] = median(opsMs)
	out.metrics["request_p99_ms"] = median(p99)
	out.metrics["requests_per_s"] = median(rate)
	out.samples = len(opsMs)
	if err := st.checkFetches(&out.tally, fetches); err != nil {
		return nil, err
	}

	sim := newSimAgg()
	var verifyS []float64
	for s := 0; s < serveVerifySeeds; s++ {
		sp := calibrate()
		start := opStart()
		if err := st.verifyServed(&out.tally, derive(seed, "measure", s), sim); err != nil {
			return nil, err
		}
		verifyS = append(verifyS, sp.seconds(cpuSince(start)))
	}
	out.metrics["evaluate_s"] = median(verifyS)
	sim.fill(out.metrics)
	return out, nil
}

func mergeTally(dst, src *tally) {
	dst.attempted += src.attempted
	dst.failed += src.failed
	for _, n := range src.notes {
		if len(dst.notes) < 20 {
			dst.notes = append(dst.notes, n)
		}
	}
}

// serveProcs is the number of Ps the traced serve rounds run on: one per
// halod worker, as many as the machine has.
func serveProcs() int { return min(2, runtime.NumCPU()) }

// traceServe alternates untraced and traced rounds. From the client it
// times each route; from the cold jobs' stage spans it books the
// profile decode and merge, grouping, identification, rewriting and
// lowering; the rest of each request's time is the service's own.
//
// Its rounds run on serveProcs Ps and every time is the unscaled wall time
// the client sees, so waiting inside halod and requests that stop being
// served side by side show here, which the end-to-end request metrics
// cannot show. The service.wall_* metrics are the untraced rounds' request
// latencies and rate, taken as the end-to-end ones are but unscaled; they
// move with the host's load.
func (st *serveState) traceServe(out *outcome, clients []*client, states []*clientState, budget time.Duration) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs()))
	out.notes = append(out.notes, fmt.Sprintf("serve rounds run on gomaxprocs=%d", serveProcs()))
	var passes []*acc
	var untracedS, tracedS, gc []float64
	var wallMs, wallP99, wallRate []float64
	routes := map[string][]float64{}
	var fetches []fetched
	err := timedPasses(budget, 1, func(k int) error {
		runtime.GC()
		start := time.Now()
		l := st.serveRound(clients, states, false)
		untracedS = append(untracedS, time.Since(start).Seconds())
		wallMs = append(wallMs, l.opsMs...)
		wallP99 = append(wallP99, quantile(l.opsMs, 0.99))
		wallRate = append(wallRate, float64(len(l.opsMs))/untracedS[len(untracedS)-1])
		mergeTally(&out.tally, &l.tally)
		fetches = append(fetches, l.fetches...)

		a := newAcc()
		runtime.GC()
		gcBefore := markHeap().numGC
		start = time.Now()
		l = st.serveRound(clients, states, true)
		tracedS = append(tracedS, time.Since(start).Seconds())
		gc = append(gc, float64(markHeap().numGC-gcBefore))
		mergeTally(&out.tally, &l.tally)
		fetches = append(fetches, l.fetches...)
		for r, xs := range l.route {
			routes[r] = append(routes[r], xs...)
		}
		wall := 0.0
		for _, x := range l.opsMs {
			wall += x / 1000
		}
		a.add("_op_wall_s", wall)
		a.add("profstore.merge_s", l.stages["profile"])
		a.add("group.form_s", l.stages["group"])
		a.add("identify.build_s", l.stages["identify"])
		a.add("rewrite.instrument_s", l.stages["rewrite"])
		a.add("rewrite.lower_s", l.stages["lower"])
		a.add("group.groups", l.groups)
		pipeline := 0.0
		for _, x := range l.stages {
			pipeline += x
		}
		a.add("_service_s", wall-pipeline)
		passes = append(passes, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := st.checkFetches(&out.tally, fetches); err != nil {
		return nil, err
	}
	traceReport(out, passes, untracedS, tracedS, nil, gc)
	out.metrics["service.wall_p50_ms"] = median(wallMs)
	out.metrics["service.wall_p99_ms"] = median(wallP99)
	out.metrics["service.wall_requests_per_s"] = median(wallRate)
	for _, r := range []string{"upload", "merge", "optimize_cold", "optimize_cached", "fetch"} {
		out.metrics["service."+r+"_ms"] = median(routes[r])
	}
	stats := st.srv.Stats()
	if n := stats.CacheHits + stats.CacheMisses; n > 0 {
		out.metrics["service.cache_hit_ratio"] = float64(stats.CacheHits) / float64(n)
	}
	out.metrics["service.coalesced"] = float64(stats.Coalesced)
	keys := make([]string, 0, len(routes))
	for r := range routes {
		keys = append(keys, fmt.Sprintf("%s=%d", r, len(routes[r])))
	}
	sort.Strings(keys)
	out.notes = append(out.notes, "route samples: "+strings.Join(keys, " "))
	return out, nil
}
