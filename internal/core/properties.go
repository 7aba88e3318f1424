package core

import (
	"fmt"
	"math"

	"crsharing/internal/numeric"
)

// Properties summarises which of the structural schedule properties of
// Section 4 (Definitions 2-5) a schedule satisfies with respect to an
// instance.
type Properties struct {
	NonWasting  bool
	Progressive bool
	Nested      bool
	Balanced    bool
}

// String renders the property set compactly, e.g. "non-wasting progressive nested".
func (p Properties) String() string {
	k := 0
	for bit, ok := range [...]bool{p.NonWasting, p.Progressive, p.Nested, p.Balanced} {
		if ok {
			k |= 1 << bit
		}
	}
	return propertyNames[k]
}

// propertyNames holds String's 16 renderings, indexed by the property bits
// NonWasting=1, Progressive=2, Nested=4, Balanced=8: String runs on every
// response and must not build the string each time.
var propertyNames = [16]string{
	"none",
	"non-wasting",
	"progressive",
	"non-wasting progressive",
	"nested",
	"non-wasting nested",
	"progressive nested",
	"non-wasting progressive nested",
	"balanced",
	"non-wasting balanced",
	"progressive balanced",
	"non-wasting progressive balanced",
	"nested balanced",
	"non-wasting nested balanced",
	"progressive nested balanced",
	"non-wasting progressive nested balanced",
}

// CheckProperties evaluates all four structural properties for the executed
// schedule.
func CheckProperties(r *Result) Properties {
	return Properties{
		NonWasting:  IsNonWasting(r),
		Progressive: IsProgressive(r),
		Nested:      IsNested(r),
		Balanced:    IsBalanced(r),
	}
}

// IsNonWasting implements Definition 2: a schedule is non-wasting if, during
// every time step t with Σ_i R_i(t) < 1, all jobs active at the start of t
// are finished during t.
func IsNonWasting(r *Result) bool {
	for t := 0; t < r.Steps(); t++ {
		if numeric.Geq(r.Schedule().StepTotal(t), 1) {
			continue
		}
		for i := 0; i < r.NumProcessors(); i++ {
			if left, finishes := r.stepState(t, i); left > 0 && !finishes {
				return false
			}
		}
	}
	return true
}

// IsProgressive implements Definition 3: among all jobs that are assigned
// resources during a step, at most one is only partially processed, i.e.
// |{ i | n_i(t) = n_i(t+1) ∧ R_i(t) > 0 }| ≤ 1 for every step t.
func IsProgressive(r *Result) bool {
	for t := 0; t < r.Steps(); t++ {
		partial := 0
		for i := 0; i < r.NumProcessors(); i++ {
			left, finishes := r.stepState(t, i)
			if left == 0 {
				continue
			}
			if r.Schedule().Share(t, i) > numeric.Eps && !finishes {
				partial++
			}
		}
		if partial > 1 {
			return false
		}
	}
	return true
}

// IsNested implements Definition 4: there is no time step t and pair of jobs
// (i,j), (i',j') such that S(i,j) < S(i',j') ≤ t < C(i',j'),
// S(i',j') < C(i,j), and (i,j) is running (receiving resource) during step t.
// Intuitively: among partially processed jobs, the one started latest is
// preferred and completed first, so job lifetimes form a laminar (nested)
// family.
func IsNested(r *Result) bool {
	for ai := 0; ai < r.m; ai++ {
		for ka := r.off[ai]; ka < r.off[ai+1]; ka++ { // candidate (i,j)
			as, ac := r.start[ka], r.completion[ka]
			if as < 0 || ac < 0 {
				// Jobs that never started or never finished cannot witness a
				// violation within the executed horizon.
				continue
			}
			for kb, bs := range r.start { // candidate (i',j')
				bc := r.completion[kb]
				if bs < 0 || bc < 0 || !(as < bs && bs < ac) {
					continue
				}
				// (i,j) is its processor's active job from its start (or
				// earlier) through its completion step ac, and as < bs, so
				// of the steps in [bs, bc) it is active in those up to ac.
				// It runs in one when it progresses there: it receives a
				// positive share, or is a zero-requirement job.
				for t := bs; t < min(bc, ac+1); t++ {
					if r.progressed(t, ai, ka-r.off[ai]) {
						return false
					}
				}
			}
		}
	}
	return true
}

// IsBalanced implements Definition 5: whenever a processor i finishes a job
// during step t, every processor i' with n_{i'}(t) > n_i(t) also finishes a
// job during step t.
func IsBalanced(r *Result) bool {
	for t := 0; t < r.Steps(); t++ {
		// Some processor that finishes a job must have fewer remaining jobs
		// than some processor that does not: compare the fewest among the
		// former with the most among the latter.
		fewestFinishing, mostUnfinishing := math.MaxInt, -1
		for i := 0; i < r.NumProcessors(); i++ {
			if left, finishes := r.stepState(t, i); finishes {
				fewestFinishing = min(fewestFinishing, left)
			} else {
				mostUnfinishing = max(mostUnfinishing, left)
			}
		}
		if mostUnfinishing > fewestFinishing {
			return false
		}
	}
	return true
}

// CheckProposition1 verifies both invariants of Proposition 1 for a balanced
// schedule: for all processors i1, i2 and steps t,
//
//	(a) n_{i1} ≥ n_{i2}  ⇒  n_{i1}(t) ≥ n_{i2}(t) − 1, and
//	(b) n_{i1} > n_{i2}  ⇒  n_{i1}(t) ≤ n_{i2}(t) + n_{i1} − n_{i2}.
//
// It returns a descriptive error for the first violated invariant, or nil.
// The proposition only holds for balanced schedules; callers typically check
// IsBalanced first.
func CheckProposition1(r *Result) error {
	m := r.NumProcessors()
	// left[i] is n_i(t); the array keeps it off the heap up to 64
	// processors.
	var buf [64]int
	left := buf[:0]
	for t := 0; t <= r.Steps(); t++ {
		left = left[:0]
		for i := 0; i < m; i++ {
			left = append(left, r.RemainingJobs(t, i))
		}
		for i1 := 0; i1 < m; i1++ {
			for i2 := 0; i2 < m; i2++ {
				n1, n2 := r.Instance().NumJobs(i1), r.Instance().NumJobs(i2)
				r1, r2 := left[i1], left[i2]
				if n1 >= n2 && !(r1 >= r2-1) {
					return fmt.Errorf("core: Proposition 1(a) violated at t=%d for processors %d,%d: n_%d(t)=%d < n_%d(t)-1=%d",
						t+1, i1+1, i2+1, i1+1, r1, i2+1, r2-1)
				}
				if n1 > n2 && !(r1 <= r2+n1-n2) {
					return fmt.Errorf("core: Proposition 1(b) violated at t=%d for processors %d,%d: n_%d(t)=%d > %d",
						t+1, i1+1, i2+1, i1+1, r1, r2+n1-n2)
				}
			}
		}
	}
	return nil
}

// CheckProposition2 verifies Proposition 2 for a balanced schedule: if job
// (i,j) is active at step t and it is not the last job of processor i
// (n_i(t) > 1), then every processor in M_j (those with at least j jobs) is
// active at step t. Job indices in the proposition are one-based; the
// zero-based code converts accordingly.
func CheckProposition2(r *Result) error {
	m := r.NumProcessors()
	for t := 0; t < r.Steps(); t++ {
		// M_{j+1} holds an idle processor exactly when the most jobs of
		// any idle processor is at least j+1.
		mostIdle := 0
		for other := 0; other < m; other++ {
			if !r.Active(t, other) {
				mostIdle = max(mostIdle, r.Instance().NumJobs(other))
			}
		}
		for i := 0; i < m; i++ {
			j, ok := r.ActiveJob(t, i)
			if !ok || r.RemainingJobs(t, i) <= 1 || mostIdle < j+1 {
				continue
			}
			for other := 0; other < m; other++ {
				if r.Instance().NumJobs(other) >= j+1 && !r.Active(t, other) {
					return fmt.Errorf("core: Proposition 2 violated at t=%d: job (%d,%d) active with n_%d(t)>1 but processor %d idle",
						t+1, i+1, j+1, i+1, other+1)
				}
			}
		}
	}
	return nil
}
