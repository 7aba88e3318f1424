package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultTenant is the tenant anonymous requests are accounted under.
const DefaultTenant = "default"

// TenantConfig is the admission policy of one tenant. The zero value is
// normalised to sensible defaults by the scheduler: weight 1, inflight quota
// equal to the global capacity, a queue bound of 16x capacity and priority 0
// (the most important class).
type TenantConfig struct {
	// Weight is the tenant's deficit-round-robin share: under contention a
	// tenant with weight 3 is admitted three solves for every one of a
	// weight-1 tenant. Values below 1 are raised to 1.
	Weight int64
	// MaxInflight caps the solves the tenant may have admitted at once; 0 or
	// less means the global capacity (no per-tenant cap).
	MaxInflight int64
	// MaxQueued caps the tenant's wait queue: an acquire arriving with
	// MaxQueued requests already queued for the tenant is shed with ErrShed
	// instead of waiting. 0 or less means 16x the global capacity.
	MaxQueued int
	// Priority is the tenant's class: 0 is the most important, higher values
	// are served strictly after lower ones and are shed early when the
	// backlog of more-important work already exceeds the global capacity.
	Priority int
}

// ErrShed is the typed rejection of the fair scheduler: the request was over
// quota (tenant queue full, or best-effort work behind a saturating backlog)
// and was refused instead of queued. The serving layer maps it to HTTP 429
// with a Retry-After header.
type ErrShed struct {
	// Tenant is the tenant the request was accounted to.
	Tenant string
	// Reason says which quota tripped ("queue full", "priority backlog",
	// "job queue full").
	Reason string
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("engine: tenant %q shed: %s (retry after %s)", e.Tenant, e.Reason, e.RetryAfter)
}

// Shed is a marker method: the solver cache treats errors with Shed() true as
// transient, so coalesced followers retry instead of inheriting the shed,
// without importing this package.
func (e *ErrShed) Shed() bool { return true }

// TenantGauge is the live admission state of one tenant.
type TenantGauge struct {
	// Inflight is the number of solves the tenant has admitted right now.
	Inflight int64
	// Queued is the number of requests waiting in the tenant's queue.
	Queued int
}

// fairScheduler replaces the old single FIFO semaphore: one wait queue per
// tenant, drained by deficit-weighted round-robin under the same global
// capacity, with strict priority classes above the round-robin and per-tenant
// quotas that shed over-quota work instead of queueing it.
//
// Invariants:
//   - FIFO within a tenant: a tenant's queue is only ever served from the
//     front.
//   - Work-conserving across tenants of one class: each round-robin pass adds
//     weight x quantum to a tenant's deficit and admits its front waiters
//     while the deficit, the global capacity and the tenant quota allow.
//   - Strict priority across classes: while any class-p waiter is blocked on
//     global capacity, no class-q>p waiter is admitted. A class blocked only
//     on its own tenant quotas does not hold lower classes back.
//   - No overtaking on capacity: the sweep stops at the first
//     capacity-blocked waiter and parks the round-robin cursor on its tenant,
//     so the next release resumes that tenant first, without a second
//     deficit top-up.
//
// Every request is one unit: it holds one slot of the global capacity and
// one of its tenant's inflight quota while it runs.
type fairScheduler struct {
	capacity   int64
	quantum    int64
	retryAfter time.Duration
	defaults   TenantConfig // the normalised zero config of unlisted tenants
	configured map[string]TenantConfig

	mu      sync.Mutex
	held    int64
	waiting int
	tenants map[string]*tenantState
	tiers   []*schedTier
}

// schedTier is one priority class: the tenants of that class that currently
// have waiters, in round-robin order.
type schedTier struct {
	priority int
	ring     []*tenantState
	next     int
	queued   int
	// resume marks the tenant a capacity-frozen sweep stopped on: it already
	// received its deficit top-up for the interrupted visit, so the resuming
	// sweep must not grant another one — otherwise the head tenant's deficit
	// never drains and it monopolises every release.
	resume *tenantState
}

type tenantState struct {
	name     string
	cfg      TenantConfig
	inflight int64
	deficit  int64
	queue    []chan struct{} // waiters, each closed when granted
	inRing   bool
}

func newFairScheduler(capacity int64, tenants map[string]TenantConfig, retryAfter time.Duration) *fairScheduler {
	if capacity < 1 {
		capacity = 1
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	s := &fairScheduler{
		capacity:   capacity,
		quantum:    1,
		retryAfter: retryAfter,
		defaults:   normalizeTenant(TenantConfig{}, capacity),
		configured: make(map[string]TenantConfig, len(tenants)),
		tenants:    make(map[string]*tenantState),
	}
	for name, cfg := range tenants {
		s.configured[name] = normalizeTenant(cfg, capacity)
	}
	return s
}

// normalizeTenant applies the documented defaults to a tenant config.
func normalizeTenant(cfg TenantConfig, capacity int64) TenantConfig {
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	if cfg.MaxInflight <= 0 || cfg.MaxInflight > capacity {
		cfg.MaxInflight = capacity
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = int(16 * capacity)
	}
	if cfg.Priority < 0 {
		cfg.Priority = 0
	}
	return cfg
}

// Config returns the resolved (normalised) config the scheduler applies to
// the named tenant.
func (s *fairScheduler) Config(tenant string) TenantConfig {
	if cfg, ok := s.configured[s.canonical(tenant)]; ok {
		return cfg
	}
	return s.defaults
}

func (s *fairScheduler) canonical(tenant string) string {
	if tenant == "" {
		return DefaultTenant
	}
	return tenant
}

// state returns (creating on demand) the live state of a tenant. Callers hold
// the lock.
func (s *fairScheduler) stateLocked(tenant string) *tenantState {
	tenant = s.canonical(tenant)
	ts, ok := s.tenants[tenant]
	if !ok {
		ts = &tenantState{name: tenant, cfg: s.Config(tenant)}
		s.tenants[tenant] = ts
	}
	return ts
}

// tierLocked returns (creating and keeping sorted) the tier of a priority.
func (s *fairScheduler) tierLocked(priority int) *schedTier {
	for _, t := range s.tiers {
		if t.priority == priority {
			return t
		}
	}
	t := &schedTier{priority: priority}
	s.tiers = append(s.tiers, t)
	sort.Slice(s.tiers, func(i, j int) bool { return s.tiers[i].priority < s.tiers[j].priority })
	return t
}

// Acquire blocks until the tenant is granted one unit or ctx is done.
// Over-quota work is rejected immediately with *ErrShed: a full tenant queue,
// or a best-effort (priority > 0) request arriving while the backlog of
// equally-or-more important queued work already exceeds the global capacity.
func (s *fairScheduler) Acquire(ctx context.Context, tenant string) error {
	s.mu.Lock()
	ts := s.stateLocked(tenant)

	// Fast path: nobody is waiting anywhere and both budgets have room.
	if s.waiting == 0 && s.held < s.capacity && ts.inflight < ts.cfg.MaxInflight {
		s.held++
		ts.inflight++
		s.mu.Unlock()
		return nil
	}

	// Shedding: refuse over-quota work instead of queueing it.
	if len(ts.queue) >= ts.cfg.MaxQueued {
		s.mu.Unlock()
		return &ErrShed{Tenant: ts.name, Reason: "queue full", RetryAfter: s.retryAfter}
	}
	if ts.cfg.Priority > 0 && int64(s.backlogAheadLocked(ts.cfg.Priority)) >= s.capacity {
		s.mu.Unlock()
		return &ErrShed{Tenant: ts.name, Reason: "priority backlog", RetryAfter: s.retryAfter}
	}

	ready := make(chan struct{})
	ts.queue = append(ts.queue, ready)
	s.waiting++
	tier := s.tierLocked(ts.cfg.Priority)
	tier.queued++
	if !ts.inRing {
		tier.ring = append(tier.ring, ts)
		ts.inRing = true
	}
	// The new waiter may be admissible right away (e.g. the fast path was
	// skipped only because other tenants are quota-blocked).
	s.grantLocked()
	s.mu.Unlock()

	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-ready:
			// Granted concurrently with the cancellation: keep the slot and
			// report success; the caller releases it normally.
			s.mu.Unlock()
			return nil
		default:
		}
		s.removeWaiterLocked(ts, ready)
		// Removing a waiter can unblock the ones behind it, so re-sweep.
		s.grantLocked()
		s.mu.Unlock()
		return ctx.Err()
	}
}

// backlogAheadLocked counts the queued requests of classes at least as
// important as priority p (i.e. priority <= p).
func (s *fairScheduler) backlogAheadLocked(p int) int {
	sum := 0
	for _, t := range s.tiers {
		if t.priority <= p {
			sum += t.queued
		}
	}
	return sum
}

// removeWaiterLocked drops a cancelled waiter from its tenant queue and fixes
// the tier accounting.
func (s *fairScheduler) removeWaiterLocked(ts *tenantState, ready chan struct{}) {
	for i, q := range ts.queue {
		if q == ready {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			s.waiting--
			tier := s.tierLocked(ts.cfg.Priority)
			tier.queued--
			if len(ts.queue) == 0 {
				s.ringRemoveLocked(tier, ts)
			}
			return
		}
	}
}

// ringRemoveLocked takes a drained tenant out of its tier's round-robin ring
// and resets its deficit (a returning tenant starts fresh; unused share is
// not banked across idle periods).
func (s *fairScheduler) ringRemoveLocked(t *schedTier, ts *tenantState) {
	for i, r := range t.ring {
		if r == ts {
			t.ring = append(t.ring[:i], t.ring[i+1:]...)
			if t.next > i {
				t.next--
			}
			break
		}
	}
	ts.inRing = false
	ts.deficit = 0
	if t.resume == ts {
		t.resume = nil
	}
}

// Release returns the unit granted by Acquire and admits eligible waiters.
func (s *fairScheduler) Release(tenant string) {
	s.mu.Lock()
	ts := s.stateLocked(tenant)
	s.held--
	ts.inflight--
	if s.held < 0 || ts.inflight < 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("engine: scheduler released below zero (tenant %q)", tenant))
	}
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked runs the deficit-round-robin sweep: tiers in ascending
// priority; within a tier, one deficit top-up per tenant per pass, admitting
// front waiters while deficit, capacity and tenant quota allow. A
// capacity-blocked waiter freezes the whole sweep (no overtaking, across or
// within tiers) with the round-robin cursor parked on its tenant, so the next
// release resumes exactly there.
func (s *fairScheduler) grantLocked() {
	for _, tier := range s.tiers {
		if blocked := s.sweepTierLocked(tier); blocked {
			return
		}
	}
}

func (s *fairScheduler) sweepTierLocked(t *schedTier) (capacityBlocked bool) {
	progress := true
	for progress {
		progress = false
		for visited := len(t.ring); visited > 0 && len(t.ring) > 0; visited-- {
			if t.next >= len(t.ring) {
				t.next = 0
			}
			ts := t.ring[t.next]
			if t.resume == ts {
				t.resume = nil // interrupted visit: the top-up already happened
			} else {
				ts.deficit += ts.cfg.Weight * s.quantum
				// Cap the deficit so an idle-but-queued (quota-blocked) tenant
				// cannot bank an unbounded burst.
				if max := ts.cfg.Weight*s.quantum + s.capacity; ts.deficit > max {
					ts.deficit = max
				}
			}
			for len(ts.queue) > 0 {
				if ts.inflight >= ts.cfg.MaxInflight {
					if s.held >= s.capacity {
						// Quota-blocked in a saturated system: the spare
						// capacity is zero, so skipping ahead would hand the
						// tenant's earned share to whoever is next in the
						// ring (under capacity 1 that degenerates weighted
						// sharing into plain alternation). Freeze instead;
						// the tenant's own release resumes it to spend the
						// rest of its deficit.
						t.resume = ts
						return true
					}
					break // spare capacity: let other tenants use it
				}
				if ts.deficit < 1 {
					// Not yet earned (a resumed visit gets no top-up): keep
					// sweeping so the next pass tops the deficit up; rival
					// tenants earn share meanwhile.
					progress = true
					break
				}
				if s.held >= s.capacity {
					// Global capacity: freeze the sweep with the cursor on
					// this tenant so it is resumed first (without a second
					// top-up).
					t.resume = ts
					return true
				}
				ready := ts.queue[0]
				ts.queue = ts.queue[1:]
				s.waiting--
				t.queued--
				s.held++
				ts.inflight++
				ts.deficit--
				close(ready)
				progress = true
			}
			if len(ts.queue) == 0 {
				s.ringRemoveLocked(t, ts)
				continue // ringRemove shifted the ring under the cursor
			}
			t.next++
		}
	}
	return false
}

// InUse returns the number of admitted solves (for gauges).
func (s *fairScheduler) InUse() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// Waiting returns the number of queued acquirers across all tenants.
func (s *fairScheduler) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}

// Gauges returns the per-tenant inflight count and queue depth of every
// tenant the scheduler has seen.
func (s *fairScheduler) Gauges() map[string]TenantGauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantGauge, len(s.tenants))
	for name, ts := range s.tenants {
		out[name] = TenantGauge{Inflight: ts.inflight, Queued: len(ts.queue)}
	}
	return out
}

// CheckTenantName enforces the one rule for tenant names, wherever they come
// from (a quota spec, the X-Tenant header, an API-key mapping): 1-64
// characters of [A-Za-z0-9._-]. Names become scheduler map keys and metrics
// labels, and a quota configured under a name no request can carry would
// never apply.
func CheckTenantName(name string) error {
	ok := name != "" && len(name) <= 64
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("invalid tenant %q: want 1-64 characters of [A-Za-z0-9._-]", name)
	}
	return nil
}

// ParseTenants parses a comma-separated tenant quota spec, each entry
// "name:weight[:maxinflight[:maxqueued[:priority]]]"; omitted fields take the
// TenantConfig defaults. It is the format behind crserved's -tenants flag.
func ParseTenants(spec string) (map[string]TenantConfig, error) {
	out := make(map[string]TenantConfig)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		name := strings.TrimSpace(parts[0])
		if err := CheckTenantName(name); err != nil {
			return nil, fmt.Errorf("tenant spec %q: %w", entry, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant spec: duplicate tenant %q", name)
		}
		if len(parts) > 5 {
			return nil, fmt.Errorf("tenant spec %q: want name:weight[:maxinflight[:maxqueued[:priority]]]", entry)
		}
		var cfg TenantConfig
		fields := []*int64{&cfg.Weight, &cfg.MaxInflight}
		for i, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant spec %q: field %d: %v", entry, i+2, err)
			}
			switch i {
			case 0, 1:
				*fields[i] = v
			case 2:
				cfg.MaxQueued = int(v)
			case 3:
				cfg.Priority = int(v)
			}
		}
		out[name] = cfg
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tenant spec %q: no tenants", spec)
	}
	return out, nil
}
