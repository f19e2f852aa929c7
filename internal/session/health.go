package session

import "fmt"

// Health is a session's degradation state. The machine is monotonic
// per incarnation — Healthy → Degraded → Failed → PermanentlyFailed —
// so an observer polling Snapshot never sees a session "un-degrade"
// and flap its alerts: a call that limped stays marked as having
// limped for its lifetime (DESIGN.md §12). A supervisor restart does
// not rewind any state: it registers a fresh incarnation (starting
// Healthy) while the old record keeps its terminal health (§13).
//
//   - Healthy: everything nominal.
//   - Degraded: the session hit recoverable trouble it survived —
//     checkpoint saves exhausted their retries, the watchdog caught a
//     stall, or Manager.Close abandoned it at the deadline. The
//     reconstruction keeps running and its output stays usable.
//   - Failed: the worker died (panic or fatal stream error). The
//     partial reconstruction up to the failure stays readable, but no
//     further frames are processed. With Config.AutoRestart the
//     supervisor resurrects the id as a new incarnation.
//   - PermanentlyFailed: the circuit breaker gave up — the id burned
//     through Config.MaxRestarts restarts within one minute and the
//     supervisor will not try again. Terminal; operator judgement
//     required.
type Health int32

const (
	Healthy Health = iota
	Degraded
	Failed
	PermanentlyFailed
)

// String names the state for logs and fleet stats.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	case PermanentlyFailed:
		return "permanently-failed"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// maxHealthReasons bounds the retained degradation reasons per session;
// a store failing every interval must not grow the slice unboundedly.
const maxHealthReasons = 8

// Health returns the session's current health state.
func (s *Session) Health() Health { return Health(s.health.Load()) }

// HealthReasons returns the retained (bounded, oldest-first) reasons
// for every degrade/fail transition and notable repeat events.
func (s *Session) HealthReasons() []string {
	s.reasonMu.Lock()
	defer s.reasonMu.Unlock()
	return append([]string(nil), s.reasons...)
}

// addReason appends a reason under the bound; repeats beyond the cap
// are dropped (the counters carry the magnitude, reasons carry the
// kinds).
func (s *Session) addReason(reason string) {
	s.reasonMu.Lock()
	if len(s.reasons) < maxHealthReasons {
		s.reasons = append(s.reasons, reason)
	}
	s.reasonMu.Unlock()
}

// degrade moves a healthy session to Degraded (a failed one stays
// failed) and records why. Safe from any goroutine: the worker, the
// watchdog and Close all report through here.
func (s *Session) degrade(reason string) {
	if s.health.CompareAndSwap(int32(Healthy), int32(Degraded)) {
		s.mgr.degrades.Inc()
		s.mgr.logf("session %q degraded: %s", s.id, reason)
	}
	if s.Health() == Degraded {
		s.addReason(reason)
	}
}

// fail moves the session to Failed (never backwards out of
// PermanentlyFailed), records why, and wakes the supervisor so a
// restart attempt is not left waiting for the next scan tick.
func (s *Session) fail(reason string) {
	for {
		cur := Health(s.health.Load())
		if cur >= Failed {
			s.addReason(reason)
			return
		}
		if s.health.CompareAndSwap(int32(cur), int32(Failed)) {
			s.mgr.logf("session %q failed: %s", s.id, reason)
			s.addReason(reason)
			s.mgr.noteFailed()
			return
		}
	}
}

// permanentlyFail is the circuit breaker's terminal transition: the
// supervisor calls it exactly once per tripped id, after the worker is
// already dead, so it only ever moves Failed → PermanentlyFailed.
func (s *Session) permanentlyFail(reason string) {
	for {
		cur := Health(s.health.Load())
		if cur >= PermanentlyFailed {
			return
		}
		if s.health.CompareAndSwap(int32(cur), int32(PermanentlyFailed)) {
			s.mgr.logf("session %q permanently failed: %s", s.id, reason)
			s.addReason(reason)
			return
		}
	}
}
