// Package fault is the deterministic fault-injection plane: named
// fault points threaded through the artifact store's filesystem ops,
// the shared queue's lease lifecycle and worker job execution, driven
// by a scripted/probabilistic plan parsed from a compact spec
// ("artifact.put:eio@0.1;worker.exec:crash@after=2") plus a seed.
//
// The plane exists so the service layer's failure handling — retry
// with backoff, the dead-letter queue, the store's degraded mode,
// stale-lease stealing — is testable on demand instead of only under
// real hardware trouble: chaos runs reproduce from (spec, seed)
// because every probabilistic rule draws from its own splitmix64
// stream keyed by (seed, point, rule index), independent of what any
// other fault point does.
//
// Production code calls Hook (control points) or HookData (points
// that carry a byte payload, where the "corrupt" action can tamper
// with it) with a point name; with no plane installed both are
// near-free (one atomic pointer load). Tests and the CLIs install a
// plane process-wide with SetGlobal (the -faults flag / RCAD_FAULTS
// env var), or scope one to a call tree with With.
package fault

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The named fault points wired through the stack. Specs may name
// points outside this list (they parse fine and never fire), so new
// hooks don't invalidate old plans.
const (
	// PointArtifactPut fires inside Store.Put, before the blob write.
	PointArtifactPut = "artifact.put"
	// PointArtifactGet fires inside Store.Get, after the blob read.
	PointArtifactGet = "artifact.get"
	// PointQueueLease fires inside the queue's lease acquisition.
	PointQueueLease = "queue.lease"
	// PointQueueDone fires inside the queue's completion marker write.
	PointQueueDone = "queue.done"
	// PointWorkerExec fires at the top of each job execution attempt.
	PointWorkerExec = "worker.exec"
)

// ErrInjected marks every error returned by a fired fault rule.
// Callers classify injected failures as transient (retryable) with
// IsInjected / errors.Is.
var ErrInjected = errors.New("fault: injected I/O error")

// IsInjected reports whether err originates from a fired fault rule.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Action is what a fired rule does to the hooked operation.
type Action uint8

// The fault actions a rule can carry.
const (
	// ActEIO fails the operation with ErrInjected.
	ActEIO Action = iota
	// ActCrash kills the process immediately (os.Exit(137), the
	// SIGKILL convention): no defers, no lease releases, no flushes —
	// exactly what a crashed worker leaves behind.
	ActCrash
	// ActCorrupt flips one deterministically chosen byte of the
	// payload at a HookData point (simulated torn write / disk rot).
	// Ignored at payload-less Hook points.
	ActCorrupt
	// ActSleep delays the operation (deadline/timeout testing).
	ActSleep
)

func (a Action) String() string {
	switch a {
	case ActEIO:
		return "eio"
	case ActCrash:
		return "crash"
	case ActCorrupt:
		return "corrupt"
	case ActSleep:
		return "sleep"
	}
	return fmt.Sprintf("action(%d)", a)
}

// Rule is one parsed fault clause: at Point, perform Action with
// probability Prob per call, arming only after the first After calls
// and firing at most Times times (0 = unlimited).
type Rule struct {
	Point  string
	Action Action
	Prob   float64       // (0, 1]; 1 = every armed call
	After  int           // calls at the point that pass before arming
	Times  int           // max fires; 0 = unlimited
	Sleep  time.Duration // ActSleep delay
}

// ruleState is a rule plus its mutable firing state.
type ruleState struct {
	Rule
	fired int
	rng   uint64 // per-rule splitmix64 stream
}

// Plane is a set of armed fault rules with deterministic per-rule
// randomness. Safe for concurrent use; the zero value and the nil
// plane inject nothing.
type Plane struct {
	seed  uint64
	rules []*ruleState

	mu       sync.Mutex
	byPoint  map[string][]*ruleState
	calls    map[string]uint64
	injected map[string]uint64
	total    atomic.Uint64
}

// New builds a plane from parsed rules. Each rule's random stream is
// seeded by (seed, point, index-in-spec), so streams are independent
// of call interleaving across points.
func New(seed uint64, rules []Rule) *Plane {
	p := &Plane{
		seed:     seed,
		byPoint:  make(map[string][]*ruleState),
		calls:    make(map[string]uint64),
		injected: make(map[string]uint64),
	}
	for i, r := range rules {
		rs := &ruleState{Rule: r, rng: ruleSeed(seed, r.Point, i)}
		p.rules = append(p.rules, rs)
		p.byPoint[r.Point] = append(p.byPoint[r.Point], rs)
	}
	return p
}

// Seed returns the seed the plane was built with.
func (p *Plane) Seed() uint64 { return p.seed }

// ruleSeed folds the point name and rule index into the plan seed
// (FNV-1a over the identity, xored into a splitmix64 warmup).
func ruleSeed(seed uint64, point string, idx int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= prime64
	}
	h ^= uint64(idx) + 0x9e3779b97f4a7c15
	h *= prime64
	s := seed ^ h
	// One splitmix64 round so adjacent seeds decorrelate.
	s += 0x9e3779b97f4a7c15
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	return s ^ (s >> 31)
}

// next advances a splitmix64 state and returns the next value.
func next(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 maps a draw onto [0, 1).
func u01(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// hook runs the point's rules in spec order; the first rule that fires
// decides the outcome. data is non-nil only at HookData points.
func (p *Plane) hook(point string, data []byte) ([]byte, error) {
	if p == nil {
		return data, nil
	}
	p.mu.Lock()
	p.calls[point]++
	call := p.calls[point]
	var fire *ruleState
	for _, rs := range p.byPoint[point] {
		if rs.Action == ActCorrupt && data == nil {
			continue // corrupt needs a payload to tamper with
		}
		if rs.Times > 0 && rs.fired >= rs.Times {
			continue
		}
		if call <= uint64(rs.After) {
			continue
		}
		if rs.Prob < 1 && u01(next(&rs.rng)) >= rs.Prob {
			continue
		}
		rs.fired++
		p.injected[point]++
		p.total.Add(1)
		fire = rs
		break
	}
	var out []byte
	if fire != nil && fire.Action == ActCorrupt {
		out = make([]byte, len(data))
		copy(out, data)
		if len(out) > 0 {
			out[next(&fire.rng)%uint64(len(out))] ^= 0xff
		}
	}
	p.mu.Unlock()

	if fire == nil {
		return data, nil
	}
	switch fire.Action {
	case ActCrash:
		fmt.Fprintf(os.Stderr, "fault: injected crash at %s\n", point)
		os.Exit(137)
	case ActSleep:
		time.Sleep(fire.Sleep)
		return data, nil
	case ActCorrupt:
		return out, nil
	}
	return nil, fmt.Errorf("%s: %w", point, ErrInjected)
}

// Injected returns how many faults the plane has fired at a point.
func (p *Plane) Injected(point string) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected[point]
}

// Calls returns how many times a point has been hooked.
func (p *Plane) Calls(point string) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[point]
}

// Total returns the plane's total fired-fault count.
func (p *Plane) Total() uint64 {
	if p == nil {
		return 0
	}
	return p.total.Load()
}

// The process-wide plane (nil = no injection). SetGlobal installs the
// -faults plan; a ctx plane from With overrides it for a call tree.
var global atomic.Pointer[Plane]

// SetGlobal installs (or with nil, clears) the process-wide plane.
func SetGlobal(p *Plane) { global.Store(p) }

type ctxKey struct{}

// With scopes a plane to a context subtree, overriding the global one.
func With(ctx context.Context, p *Plane) context.Context {
	return context.WithValue(ctx, ctxKey{}, p)
}

// from resolves the active plane: context first, then global.
func from(ctx context.Context) *Plane {
	if ctx != nil {
		if p, ok := ctx.Value(ctxKey{}).(*Plane); ok {
			return p
		}
	}
	return global.Load()
}

// Hook evaluates the active plane at a control point. It returns
// ErrInjected-wrapped errors for eio rules, sleeps for sleep rules,
// exits the process for crash rules, and nil when nothing fires (or no
// plane is installed).
func Hook(ctx context.Context, point string) error {
	p := from(ctx)
	if p == nil {
		return nil
	}
	_, err := p.hook(point, nil)
	return err
}

// HookData evaluates the active plane at a payload-carrying point:
// like Hook, but corrupt rules can return a tampered copy of data.
// With no plane installed it returns data unchanged.
func HookData(ctx context.Context, point string, data []byte) ([]byte, error) {
	p := from(ctx)
	if p == nil {
		return data, nil
	}
	return p.hook(point, data)
}

// InjectedTotal returns the global plane's total fired-fault count
// (0 with no plane installed) — the /metrics fault_injected_total feed.
func InjectedTotal() uint64 { return global.Load().Total() }
