package solver

import (
	"fmt"
	"sort"
	"sync"

	"crsharing/internal/algo/anytime"
	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/chunked"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
)

// Registry maps solver names to constructors so the CLI tools and the
// experiment harness can select solvers by name. It is safe for concurrent
// use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]func() Solver
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]func() Solver)}
}

// Register adds a constructor under the given name. The factory is stored,
// not invoked: no solver is built until New is called, so registering a heavy
// solver (a full portfolio) costs nothing. Registering an
// empty name or the same name twice panics: both are programming errors.
func (r *Registry) Register(name string, factory func() Solver) {
	if name == "" {
		panic("solver: registration with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", name))
	}
	r.factories[name] = factory
}

// New returns a fresh solver instance by name.
func (r *Registry) New(name string) (Solver, error) {
	f, err := r.factory(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Lookup reports whether name is registered, with New's error when it is
// not, without building a solver.
func (r *Registry) Lookup(name string) error {
	_, err := r.factory(name)
	return err
}

func (r *Registry) factory(name string) (func() Solver, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solver: unknown solver %q (available: %v)", name, r.Names())
	}
	return f, nil
}

// Names returns the registered solver names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default returns a registry holding every scheduler of the repository — the
// seven algo packages and the default portfolio. "branch-and-bound-parallel"
// is branch-and-bound under a second name (see branchbound.NewParallel).
func Default() *Registry {
	r := NewRegistry()
	r.Register("round-robin", func() Solver { return Adapt(roundrobin.New()) })
	r.Register("greedy-balance", func() Solver { return Adapt(greedybalance.New()) })
	r.Register("greedy-balance-small", func() Solver { return Adapt(greedybalance.NewWithTie(greedybalance.SmallerRemaining)) })
	r.Register("greedy-unbalanced-large", func() Solver { return Adapt(greedybalance.NewUnbalanced(greedybalance.LargerRemaining)) })
	r.Register("opt-res-assignment", func() Solver { return Adapt(optres2.New()) })
	r.Register("opt-res-assignment-pq", func() Solver { return Adapt(optres2.NewPQ()) })
	r.Register("opt-res-assignment-2", func() Solver { return Adapt(optresm.New()) })
	r.Register("branch-and-bound", func() Solver { return Adapt(branchbound.New()) })
	r.Register("branch-and-bound-parallel", func() Solver { return Adapt(branchbound.NewParallel()) })
	r.Register("chunked-exact-w2", func() Solver { return Adapt(chunked.New(2)) })
	r.Register("chunked-exact-w3", func() Solver { return Adapt(chunked.New(3)) })
	r.Register("anytime-local-search", func() Solver { return Adapt(anytime.New()) })
	r.Register("portfolio", func() Solver { return NewDefaultPortfolio() })
	return r
}

// NewDefaultPortfolio races the fast heuristics against the exact solvers and
// returns the best schedule any of them finds. Members that reject the
// instance (wrong processor count, non-unit sizes) are simply skipped, so the
// portfolio accepts every instance at least one member accepts. The anytime
// tier rides along: it streams a feasible incumbent within microseconds and
// keeps improving it while the exact members search, so observers of a long
// race are never without a bound.
func NewDefaultPortfolio() *Portfolio {
	return NewPortfolio(
		Adapt(greedybalance.New()),
		Adapt(roundrobin.New()),
		Adapt(anytime.New()),
		Adapt(chunked.New(2)),
		Adapt(optres2.New()),
		Adapt(optresm.New()),
		Adapt(branchbound.NewParallel()),
	)
}

// NewExactPortfolio races only the exact solvers and cancels the rest as soon
// as one of them succeeds — the cheapest applicable optimum oracle wins (the
// m=2 dynamic program on two processors, branch-and-bound or the
// configuration enumeration elsewhere).
func NewExactPortfolio() *Portfolio {
	p := NewPortfolio(
		Adapt(optres2.New()),
		Adapt(branchbound.New()),
		Adapt(optresm.New()),
	)
	p.RaceExact = true
	return p
}

// compile-time interface checks for the adapters the registry hands out.
var (
	_ ContextScheduler = (*anytime.Scheduler)(nil)
	_ ContextScheduler = (*branchbound.Scheduler)(nil)
	_ ContextScheduler = (*optresm.Scheduler)(nil)
	_ ContextScheduler = (*chunked.Scheduler)(nil)
)
