package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twinsearch"
	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/server"
)

// Fixed shape of every workload. The dataset is always EEGN(dataSeed, n):
// --seed drives queries, the Zipf draws and the append picks, never the
// series, so set-up builds the same index on every run.
const (
	dataSeed    = 1
	fullN       = 200_000
	smokeN      = 20_000
	seqLen      = 100 // L, the paper's default
	topK        = 10
	topkShare   = 0.2
	clients     = 2 // closed loop; = nproc on the reference box, fixed, not scaled
	poolSize    = 512
	zipfS       = 1.1
	appendEvery = 2000 // ops between appends, over all clients
	ladderOps   = 2000 // queries the traced run replays at every rung
)

type opKind uint8

const (
	opSearch opKind = iota
	opTopK
	opAppend
)

var opPath = [...]string{"/search", "/topk", "/append"}

// op is one request: its kind and the index of its query in run.queries
// (for opAppend, the pool query whose values are appended).
type op struct {
	kind opKind
	q    int
}

// workloadDef is one traffic mix and the way its engine comes to exist.
type workloadDef struct {
	name string
	eps  float64
	// pool: draw queries Zipf-distributed from poolSize fixed ones and
	// append one of them every appendEvery-th op, instead of never
	// repeating a query.
	pool bool
	// maxQPS sizes the pre-marshalled request list; a run that outpaces
	// it ends early (count-boxed) instead of marshalling under the clock.
	maxQPS int
	// setupRepeats is how many times set-up is timed; the median is
	// setup_s and the last instance serves the run.
	setupRepeats int
	// saved is the index file the traced ladder reopens; prep creates it
	// (untimed, prep_s) for the workloads whose set-up opens a file.
	saved   func(r *run) string
	prep    func(r *run) error
	open    func(r *run) (*served, error)
	backing string // the rung below the engine: core, shard or cluster
	// setupMetric is the per-layer metric that set-up's timed path is.
	setupMetric string
}

var workloads = []*workloadDef{
	{name: "point", eps: 0.2, maxQPS: 6000, setupRepeats: 3, backing: "core",
		setupMetric: "build.insert_s", saved: (*run).singlePath, open: openBuilt(0)},
	{name: "wide-sharded", eps: 1.0, maxQPS: 2500, setupRepeats: 3, backing: "shard",
		setupMetric: "build.sharded_s", saved: (*run).shardedPath, open: openBuilt(4)},
	{name: "hot-append", eps: 0.2, pool: true, maxQPS: 40000, setupRepeats: 15, backing: "core",
		setupMetric: "persist.open_copy_ms", saved: (*run).singlePath, prep: prepSaved(0), open: openCopy},
	{name: "cluster-r2", eps: 0.2, maxQPS: 4000, setupRepeats: 31, backing: "cluster",
		setupMetric: "cluster.assemble_ms", saved: (*run).shardedPath, prep: prepSaved(4), open: openCluster},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// servingOptions is tsserve's default serving configuration: both caches
// at their default sizes, no trace sampling, the default slow-query log;
// no admission limit is set on the handler.
func servingOptions() twinsearch.Options {
	return twinsearch.Options{L: seqLen, Norm: twinsearch.NormGlobal, NormSet: true,
		PlanCache: -1, ResultCacheBytes: -1,
		SlowLogSize: 128, SlowLogThreshold: 100 * time.Millisecond}
}

// run is the state of one workload run.
type run struct {
	cfg  config
	w    *workloadDef
	dir  string // scratch directory inside the benchmark's own
	data []float64

	queries [][]float64
	bodies  [3][][]byte // [kind][query] marshalled request bodies
	ops     [clients][]op
	base    []int // pool workloads: oracle twin count of each pool query before any append

	layer   map[string]metric    // per-layer metrics gathered so far
	samples map[string][]float64 // per-layer metrics reported as a median of these
	setups  []float64            // s, calibrated

	ref *reference
}

func (r *run) singlePath() string  { return filepath.Join(r.dir, "single.tsfz") }
func (r *run) shardedPath() string { return filepath.Join(r.dir, "sharded.tssh") }
func (r *run) windows() int        { return series.NumSubsequences(len(r.data), seqLen) }

// generate draws the run's queries and op sequences from the seed and
// marshals every request body, all before any clock starts.
func (r *run) generate() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	perClient := int(float64(r.w.maxQPS)*(r.cfg.seconds+sliceSeconds))/clients + 64 // + the warm-up slice
	count := perClient * clients
	if r.w.pool {
		count = poolSize
	}
	if count > r.windows() {
		return fmt.Errorf("%s: %d distinct queries wanted, series has %d windows", r.w.name, count, r.windows())
	}
	// Distinct starts, the paper's §6.1 sampling without replacement:
	// a repeated query would hit the result cache and the distinct
	// workloads promise a hit ratio of 0.
	starts := rng.Perm(r.windows())[:count]
	r.queries = make([][]float64, count)
	for i, p := range starts {
		r.queries[i] = r.data[p : p+seqLen : p+seqLen]
	}
	for k := range r.bodies {
		r.bodies[k] = make([][]byte, count)
	}
	var zipf *rand.Zipf
	if r.w.pool {
		zipf = rand.NewZipf(rng, zipfS, 1, poolSize-1)
	}
	every := r.cfg.appendEvery / clients
	for c := range r.ops {
		r.ops[c] = make([]op, perClient)
		for i := range r.ops[c] {
			o := op{kind: opSearch, q: c*perClient + i}
			if rng.Float64() < topkShare {
				o.kind = opTopK
			}
			if r.w.pool {
				o.q = int(zipf.Uint64())
				// Client 0 alone appends, so the driver's copy of the
				// grown series has the server's append order.
				if c == 0 && i%every == every-1 {
					o = op{kind: opAppend, q: rng.Intn(poolSize)}
				}
			}
			if _, err := r.body(o.kind, o.q); err != nil {
				return err
			}
			r.ops[c][i] = o
		}
	}
	return nil
}

// body returns the marshalled request for (kind, query), marshalling it
// on first use.
func (r *run) body(kind opKind, q int) ([]byte, error) {
	if b := r.bodies[kind][q]; b != nil {
		return b, nil
	}
	var v interface{}
	switch kind {
	case opSearch:
		v = searchRequest{Query: r.queries[q], Eps: r.w.eps}
	case opTopK:
		v = topkRequest{Query: r.queries[q], K: topK}
	default:
		v = appendRequest{Values: r.queries[q]}
	}
	b, err := json.Marshal(v)
	r.bodies[kind][q] = b
	return b, err
}

// served is one running instance of the system under test: the engine,
// the tsserve handler on a loopback listener, and for the cluster its
// shard nodes.
type served struct {
	eng   *twinsearch.Engine
	front *httpSrv
	nodes []*clusterNode
	// footprint is the index bytes behind the engine (summed over the
	// shard nodes for a coordinator, whose own index is remote).
	footprint int
}

type clusterNode struct {
	node *cluster.Node
	srv  *httpSrv
}

func (s *served) close() {
	if s.front != nil {
		s.front.stop()
	}
	if s.eng != nil {
		_ = s.eng.Close() // nothing is written through the engine
	}
	for _, n := range s.nodes {
		n.srv.stop()
		if n.node != nil {
			_ = n.node.Close()
		}
	}
}

// httpSrv is an http.Server on a loopback listener with a goroutine the
// owner can wait for.
type httpSrv struct {
	srv  *http.Server
	ln   net.Listener
	url  string
	done chan struct{}
}

func listenLoopback() (*httpSrv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &httpSrv{ln: ln, url: "http://" + ln.Addr().String(), done: make(chan struct{})}, nil
}

func (s *httpSrv) serve(h http.Handler) {
	s.srv = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(s.ln) // always http.ErrServerClosed after stop
	}()
}

func (s *httpSrv) stop() {
	if s.srv == nil {
		_ = s.ln.Close()
		return
	}
	_ = s.srv.Close()
	<-s.done
}

// front puts the tsserve handler (no admission limit) in front of eng.
func front(eng *twinsearch.Engine, footprint int) (*served, error) {
	l, err := listenLoopback()
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	l.serve(server.NewWithConfig(eng, server.Config{}))
	return &served{eng: eng, front: l, footprint: footprint}, nil
}

// openBuilt builds the index from the raw series: by insertion when
// shards is 0, as a parallel sharded build otherwise.
func openBuilt(shards int) func(*run) (*served, error) {
	return func(r *run) (*served, error) {
		opt := servingOptions()
		opt.Shards = shards
		eng, err := twinsearch.Open(r.data, opt)
		if err != nil {
			return nil, err
		}
		return front(eng, eng.MemoryBytes())
	}
}

// openCopy copy-opens (no mmap) the single index prep saved.
func openCopy(r *run) (*served, error) {
	eng, err := twinsearch.OpenSavedFile(r.data, r.singlePath(), servingOptions())
	if err != nil {
		return nil, err
	}
	return front(eng, eng.MemoryBytes())
}

// prepSaved builds an index without caches and saves it where the
// workload's set-up (and the traced ladder) will open it.
func prepSaved(shards int) func(*run) error {
	return func(r *run) error {
		eng, err := twinsearch.Open(r.data, twinsearch.Options{L: seqLen, Shards: shards})
		if err != nil {
			return err
		}
		defer eng.Close()
		path := r.singlePath()
		if shards > 0 {
			path = r.shardedPath()
		}
		return eng.SaveIndexFile(path)
	}
}

// clusterTopology lays the 4 saved shards out as 2 replica groups of 2
// owners each.
func clusterTopology(index string, addrs [4]string) *cluster.Topology {
	return &cluster.Topology{Index: index, Replicas: 2, Nodes: []cluster.NodeSpec{
		{Name: "a0", Addr: addrs[0], Shards: cluster.ShardList{0, 1}},
		{Name: "a1", Addr: addrs[1], Shards: cluster.ShardList{0, 1}},
		{Name: "b0", Addr: addrs[2], Shards: cluster.ShardList{2, 3}},
		{Name: "b1", Addr: addrs[3], Shards: cluster.ShardList{2, 3}},
	}}
}

func (r *run) topologyPath() string { return filepath.Join(r.dir, "topology.json") }

// openCluster assembles the cluster: four shard nodes mmap-opening their
// two shards of the saved index behind loopback RPC servers, and a
// coordinator engine over the topology file naming them.
func openCluster(r *run) (s *served, err error) {
	s = &served{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var addrs [4]string
	var lns [4]*httpSrv
	for i := range lns {
		if lns[i], err = listenLoopback(); err != nil {
			return nil, err
		}
		addrs[i] = lns[i].url
		s.nodes = append(s.nodes, &clusterNode{srv: lns[i]})
	}
	topo := clusterTopology(r.shardedPath(), addrs)
	ext := series.NewExtractor(r.data, series.NormGlobal)
	for i, spec := range topo.Nodes {
		t0 := time.Now()
		n, err := cluster.OpenNode(topo, spec.Name, ext, cluster.NodeOptions{})
		if err != nil {
			return nil, err
		}
		r.observe("persist.open_mmap_ms", msSince(t0))
		s.nodes[i].node = n
		lns[i].serve(cluster.NewNodeRPC(n))
		s.footprint += n.Sub.MemoryBytes() + n.Sub.MappedBytes()
	}
	raw, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(r.topologyPath(), raw, 0o644); err != nil {
		return nil, err
	}
	opt := servingOptions()
	opt.Topology = r.topologyPath()
	opt.MMap = true
	eng, err := twinsearch.Open(r.data, opt)
	if err != nil {
		return nil, err
	}
	f, err := front(eng, s.footprint)
	if err != nil {
		return nil, err
	}
	s.eng, s.front = f.eng, f.front
	return s, nil
}

// setup times the workload's set-up path setupRepeats times — workload
// start to server accepting, in calibrated time, with a calibration phase
// before and after each — and leaves the last instance running.
func (r *run) setup() (s *served, err error) {
	defer func() {
		if err != nil && s != nil {
			s.close()
		}
	}()
	before, err := r.ref.phase(setupCal)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.w.setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // every repeat starts from a collected heap
		t0 := time.Now()
		if s, err = r.w.open(r); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", r.w.name, err)
		}
		raw := time.Since(t0).Seconds()
		after, err := r.ref.phase(setupCal)
		if err != nil {
			return s, err
		}
		r.setups = append(r.setups, raw*scale(append(before, after...)))
		before = after
	}
	return s, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

func loadSeries(n int) []float64 { return datasets.EEGN(dataSeed, n) }

// The wire structs of internal/server, re-declared: the benchmark speaks
// the public JSON API and measures its encode/decode cost on the same
// shapes.
type searchRequest struct {
	Query []float64 `json:"query"`
	Eps   float64   `json:"eps"`
}

type topkRequest struct {
	Query []float64 `json:"query"`
	K     int       `json:"k"`
}

type appendRequest struct {
	Values []float64 `json:"values"`
}

type matchBody struct {
	Start int      `json:"start"`
	Dist  *float64 `json:"dist,omitempty"`
}

type searchResponse struct {
	Count   int         `json:"count"`
	Matches []matchBody `json:"matches"`
}

func toBody(ms []twinsearch.Match) searchResponse {
	out := searchResponse{Count: len(ms), Matches: make([]matchBody, len(ms))}
	for i, m := range ms {
		out.Matches[i] = matchBody{Start: m.Start}
		if m.Dist >= 0 {
			d := m.Dist
			out.Matches[i].Dist = &d
		}
	}
	return out
}
