package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/harness"
)

// coldKind selects the untimed cold re-check applied to a sample of answers
// after the measured phase.
type coldKind int

const (
	// coldNotWorseThanGreedy requires the served makespan to be no worse than
	// a direct greedy-balance solve: the default portfolio races that member,
	// so it can never lose to it.
	coldNotWorseThanGreedy coldKind = iota
	// coldEqualExact requires the served makespan to equal a fresh, uncached
	// branch-and-bound solve.
	coldEqualExact
)

// workload is one traffic mix the benchmark drives through the served stack.
type workload struct {
	name string
	why  string
	// timeout is the per-request (per-batch) solve budget.
	timeout time.Duration
	// fleet serves the workload through a router over two backends.
	fleet bool
	// pool marks workloads that draw from the warmed 256-instance pool.
	pool bool
	// settle is how many requests each client sends, untimed, between the
	// forced GC that opens a measured phase and the phase itself, so the
	// first window does not measure the stack finding its pace again (GC
	// pacing after the forced collection, new pooled connections, the first
	// cache writes). It is a count, not a time, so the untraced and traced
	// runs of a workload measure the same request sequence.
	settle int
	cold   coldKind
	// next builds a client's input stream.
	next func(seed int64, client int, pool *instancePool) source
}

// source yields a client's requests in a deterministic order.
type source interface {
	next() request
}

// request is one HTTP request: its endpoint, its body, and the instances it
// carries in body order, so the answers can be checked.
type request struct {
	path  string
	body  []byte
	insts []*core.Instance
}

const (
	solvePath = "/v1/solve"
	batchPath = "/v1/batch-solve"
)

// Request timeouts and shapes of the workloads.
const (
	poolSize        = 256
	batchSize       = 8
	batchPoolDraws  = batchSize - 1
	singleTimeout   = 250 * time.Millisecond
	exactTimeout    = 2 * time.Second
	chainMutations  = 11
	gadgetElements  = 10
	gadgetEpsilon   = 0.01
	clientRNGFactor = 1_000_003
	// settleRequests per client take 0.1 s to 1.5 s on two cores;
	// fresh-solve's few requests a second settle on fewer.
	settleRequests   = 500
	freshSolveSettle = 10
)

var workloads = []*workload{
	{
		name:    "repeat-solve",
		why:     "every answer is a cache hit needing a processor remap, so HTTP, JSON, fingerprinting, cache lookup and telemetry set the time; kernels idle",
		timeout: singleTimeout,
		pool:    true,
		settle:  settleRequests,
		cold:    coldNotWorseThanGreedy,
		next:    newRepeatSource,
	},
	// fresh-solve runs but BENCHMARK.json does not gate it: its wide class
	// overruns the deadline by seconds, too rarely for a steady figure.
	{
		name:    "fresh-solve",
		why:     "every request is a true miss, so the portfolio race and its slowest member set latency and CPU, and the cache only absorbs writes",
		timeout: singleTimeout,
		settle:  freshSolveSettle,
		cold:    coldNotWorseThanGreedy,
		next:    newFreshSource,
	},
	// fresh-small is not gated either: its timings follow the shared host's
	// speed more closely than the gated workloads' (README.md, Steadiness).
	{
		name:    "fresh-small",
		why:     "every request is a true miss on a small m=2-3 instance, so the seven-member portfolio race and cache writes set the cost, inside the deadline",
		timeout: singleTimeout,
		settle:  settleRequests,
		cold:    coldNotWorseThanGreedy,
		next:    newFreshSmallSource,
	},
	{
		name:    "online-chain",
		why:     "every exact key misses but a near neighbor is cached, so the neighbor index, schedule adaptation and warm-started branch-and-bound do the work",
		timeout: exactTimeout,
		settle:  settleRequests,
		cold:    coldEqualExact,
		next:    newChainSource,
	},
	{
		name:    "fleet-batch",
		why:     "the only path through the router: ring, batch split by owner, concurrent sub-batches and re-merge, with one cache write per seven reads over two caches",
		timeout: exactTimeout,
		fleet:   true,
		pool:    true,
		settle:  settleRequests,
		cold:    coldNotWorseThanGreedy,
		next:    newBatchSource,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// clientRNG is the seeded random stream of one client of one workload; salt
// keeps the streams of different workloads apart.
func clientRNG(seed int64, salt int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*clientRNGFactor + salt*7919 + int64(client)*104_729))
}

// instancePool is the 256-instance pool of the cache-hit workloads: the
// harness corpus without its greedy-trap and wide-many-proc families,
// re-emitted under seeded processor permutations. The portfolio overruns
// its deadline on wide-many-proc instances by up to seconds, so warming
// them made set-up take 5 s to 18 s depending on the seed. json holds each
// instance's pre-encoded JSON.
type instancePool struct {
	insts []*core.Instance
	json  [][]byte
}

func buildPool(seed int64) (*instancePool, error) {
	var base []*core.Instance
	for _, it := range harness.BuildCorpus(seed).Items() {
		if it.Family != harness.FamilyGreedyTrap && it.Family != harness.FamilyWideManyProc {
			base = append(base, it.Inst)
		}
	}
	rng := rand.New(rand.NewSource(seed*clientRNGFactor - 1))
	p := &instancePool{insts: make([]*core.Instance, poolSize), json: make([][]byte, poolSize)}
	for i := range p.insts {
		b := base[i%len(base)]
		p.insts[i] = harness.PermuteProcs(b, rng.Perm(b.NumProcessors()))
		raw, err := json.Marshal(p.insts[i])
		if err != nil {
			return nil, fmt.Errorf("encoding pool instance %d: %w", i, err)
		}
		p.json[i] = raw
	}
	return p, nil
}

// solveBody encodes a POST /v1/solve body around pre-encoded instance JSON.
func solveBody(instJSON []byte, solverName string, timeout time.Duration) []byte {
	var b bytes.Buffer
	b.WriteString(`{"instance":`)
	b.Write(instJSON)
	if solverName != "" {
		fmt.Fprintf(&b, `,"solver":%q`, solverName)
	}
	fmt.Fprintf(&b, `,"timeout":%q,"include_schedule":true}`, timeout.String())
	return b.Bytes()
}

// batchBody encodes a POST /v1/batch-solve body.
func batchBody(instJSON [][]byte, timeout time.Duration) []byte {
	var b bytes.Buffer
	b.WriteString(`{"instances":[`)
	for i, raw := range instJSON {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(raw)
	}
	fmt.Fprintf(&b, `],"timeout":%q}`, timeout.String())
	return b.Bytes()
}

func mustJSON(inst *core.Instance) []byte {
	raw, err := json.Marshal(inst)
	if err != nil {
		// Generated instances always encode; failing here is a bug.
		panic(err)
	}
	return raw
}

// poolWarmup returns the set-up requests that solve the pool once. They are
// dealt to the clients by fingerprint, so processor-permuted duplicates go
// to the same client one after another and hit the cache: dealt to two
// clients at once, they could coalesce onto a solve that overruns the
// follower's deadline.
func poolWarmup(pool *instancePool, client, clients int) []request {
	var out []request
	for i, inst := range pool.insts {
		if inst.Fingerprint().Uint64()%uint64(clients) == uint64(client) {
			out = append(out, request{path: solvePath, body: solveBody(pool.json[i], "", singleTimeout), insts: pool.insts[i : i+1]})
		}
	}
	return out
}

// repeatSource draws uniformly from the warmed pool.
type repeatSource struct {
	rng  *rand.Rand
	pool *instancePool
}

func newRepeatSource(seed int64, client int, pool *instancePool) source {
	return &repeatSource{rng: clientRNG(seed, 1, client), pool: pool}
}

func (s *repeatSource) next() request {
	i := s.rng.Intn(poolSize)
	return request{path: solvePath, body: solveBody(s.pool.json[i], "", singleTimeout), insts: s.pool.insts[i : i+1]}
}

// freshSource generates every instance anew, stratified in blocks: each
// block holds perBlock[class] instances of each class, shuffled. For
// fresh-solve a block of 20 is 8 small (m=2-3), 6 uneven (m=4-6), 3
// resource-tight (m=3-4) and 3 wide (m=8-12). Stratifying keeps the class
// mix of a short run at exactly 40/30/15/15.
type freshSource struct {
	rng      *rand.Rand
	perBlock []int
	block    []int
}

const (
	freshSmall = iota
	freshUneven
	freshTight
	freshWide
)

func newFreshSource(seed int64, client int, _ *instancePool) source {
	return &freshSource{rng: clientRNG(seed, 2, client), perBlock: []int{8, 6, 3, 3}}
}

// newFreshSmallSource draws only fresh-solve's small class.
func newFreshSmallSource(seed int64, client int, _ *instancePool) source {
	return &freshSource{rng: clientRNG(seed, 5, client), perBlock: []int{1, 0, 0, 0}}
}

func (s *freshSource) next() request {
	if len(s.block) == 0 {
		for class, n := range s.perBlock {
			for i := 0; i < n; i++ {
				s.block = append(s.block, class)
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	class := s.block[0]
	s.block = s.block[1:]
	inst := freshInstance(s.rng, class)
	return request{path: solvePath, body: solveBody(mustJSON(inst), "", singleTimeout), insts: []*core.Instance{inst}}
}

func freshInstance(rng *rand.Rand, class int) *core.Instance {
	switch class {
	case freshSmall:
		return gen.RandomUneven(rng, 2+rng.Intn(2), 2, 4, 0.05, 0.95)
	case freshUneven:
		return gen.RandomUneven(rng, 4+rng.Intn(3), 2, 5, 0.05, 0.95)
	case freshTight:
		m := 3 + rng.Intn(2)
		if rng.Intn(2) == 0 {
			return gen.RandomBimodal(rng, m, 4, 0.8)
		}
		return gen.Random(rng, m, 4, 0.85, 1.0)
	default:
		m := 8 + rng.Intn(5)
		if rng.Intn(2) == 0 {
			return gen.RandomUneven(rng, m, 2, 6, 0.05, 0.9)
		}
		return gen.Random(rng, m, 4, 0.1, 0.8)
	}
}

// chainSource walks mutation chains: each chain starts from a seeded
// Partition gadget and takes 11 gen.Mutate steps cycling gen.Mutations.
type chainSource struct {
	rng   *rand.Rand
	chain []*core.Instance
}

func newChainSource(seed int64, client int, _ *instancePool) source {
	return &chainSource{rng: clientRNG(seed, 3, client)}
}

func (s *chainSource) next() request {
	if len(s.chain) == 0 {
		s.chain = gen.MutateChain(s.rng, partitionGadget(s.rng), chainMutations)
	}
	inst := s.chain[0]
	s.chain = s.chain[1:]
	return request{path: solvePath, body: solveBody(mustJSON(inst), "branch-and-bound", exactTimeout), insts: []*core.Instance{inst}}
}

// partitionGadget draws 10 Partition elements in [10,50) with an even sum
// and returns the Theorem 4 reduction instance with ε=0.01.
func partitionGadget(rng *rand.Rand) *core.Instance {
	elems := make([]int64, gadgetElements)
	var sum int64
	for i := range elems {
		elems[i] = 10 + rng.Int63n(40)
		sum += elems[i]
	}
	if sum%2 != 0 {
		if elems[0] < 49 {
			elems[0]++
		} else {
			elems[0]--
		}
	}
	inst, err := gen.PartitionGadget(elems, gadgetEpsilon)
	if err != nil {
		// Ten elements in [10,50) with an even sum always satisfy the
		// reduction's preconditions.
		panic(err)
	}
	return inst
}

// batchSource sends batches of 7 pool draws and 1 freshly generated small
// instance at a seeded position.
type batchSource struct {
	rng  *rand.Rand
	pool *instancePool
}

func newBatchSource(seed int64, client int, pool *instancePool) source {
	return &batchSource{rng: clientRNG(seed, 4, client), pool: pool}
}

func (s *batchSource) next() request {
	insts := make([]*core.Instance, 0, batchSize)
	raws := make([][]byte, 0, batchSize)
	for i := 0; i < batchPoolDraws; i++ {
		k := s.rng.Intn(poolSize)
		insts = append(insts, s.pool.insts[k])
		raws = append(raws, s.pool.json[k])
	}
	fresh := freshInstance(s.rng, freshSmall)
	at := s.rng.Intn(batchSize)
	insts = append(insts[:at], append([]*core.Instance{fresh}, insts[at:]...)...)
	raws = append(raws[:at], append([][]byte{mustJSON(fresh)}, raws[at:]...)...)
	return request{path: batchPath, body: batchBody(raws, exactTimeout), insts: insts}
}
