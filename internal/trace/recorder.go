// Flight recorder: a bounded in-memory ring of completed request
// traces with tail-based sampling. Classification happens after the
// request finishes — which is the point: the interesting traces (errors,
// slow-query breaches, recovery/startup) are only identifiable at the
// tail. Those are always kept, in a FIFO ring holding half the
// capacity; routine traffic is reservoir-sampled (Vitter's Algorithm R)
// into the other half, so the recorder retains a uniform sample of
// normal behavior for baseline comparison without unbounded growth.
//
// The routine-traffic path is engineered for the reject case: the
// reservoir uses skip sampling (Vitter's Algorithm X — the admission
// gap after each accepted offer is drawn once, by inverting the skip
// distribution, instead of running a Bernoulli trial per offer), so a
// rejected Record is one atomic increment plus one atomic load — no
// PRNG draw, no lock, and the span tree is never snapshotted. Only
// admitted traces pay for materialization.
package trace

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Retention classes, recorded on RequestTrace.Kept and counted in
// RecorderStats.
const (
	KeptError   = "error"   // status >= 500 or an explicit failure
	KeptSlow    = "slow"    // over the slow-query threshold
	KeptPinned  = "pinned"  // explicitly retained (?trace=1, startup recovery)
	KeptSampled = "sampled" // survived the reservoir
)

// RequestTrace is one completed request in the flight recorder: the
// identity and summary fields shown by the /v1/traces index, plus the
// full span tree in the same JSON shape as ?trace=1. Entries are
// immutable once recorded.
type RequestTrace struct {
	TraceID       string     `json:"trace_id"`
	SpanID        string     `json:"span_id,omitempty"`
	ParentID      string     `json:"parent_span_id,omitempty"`
	Route         string     `json:"route"`
	Path          string     `json:"path,omitempty"`
	Session       string     `json:"session,omitempty"`
	Status        int        `json:"status,omitempty"`
	Error         string     `json:"error,omitempty"`
	StartUnixNano int64      `json:"start_unix_nano,omitempty"`
	DurationUS    int64      `json:"dur_us"`
	Kept          string     `json:"kept,omitempty"`
	Trace         *EvalTrace `json:"trace,omitempty"`

	// Span is the request's live root span; Record snapshots it into
	// Trace on admission so rejected requests never pay the snapshot.
	Span *Span `json:"-"`
	// Pinned forces retention regardless of status and duration.
	Pinned bool `json:"-"`
	// Slow marks a slow-query breach observed by the handler (the
	// recorder also applies its own duration threshold).
	Slow bool `json:"-"`
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use and safe on a nil receiver (the disabled recorder).
type Recorder struct {
	keepCap   int
	sampCap   int
	threshold time.Duration

	sampleSeen atomic.Int64 // routine requests offered to the reservoir
	// nextOffer is the sequence number of the next reservoir offer that
	// will be considered for admission; offers below it reject with two
	// atomic operations. Advanced under mu by skip-sampling draws.
	nextOffer atomic.Int64

	mu       sync.Mutex
	kept     []*RequestTrace // FIFO ring: error/slow/pinned
	keptHead int             // next eviction slot once full
	sampled  []*RequestTrace // reservoir of routine traffic
	byID     map[string]*RequestTrace

	recorded map[string]int64 // admissions by class
	evicted  int64
}

// NewRecorder returns a recorder bounded at capacity entries, half
// reserved for kept (error/slow/pinned) traces and half for the
// reservoir sample. Requests at or over slowThreshold are classified
// slow; zero disables the duration check (explicit Slow marks still
// apply).
func NewRecorder(capacity int, slowThreshold time.Duration) *Recorder {
	if capacity < 2 {
		capacity = 2
	}
	keep := capacity / 2
	r := &Recorder{
		keepCap:   keep,
		sampCap:   capacity - keep,
		threshold: slowThreshold,
		byID:      make(map[string]*RequestTrace, capacity),
		recorded:  make(map[string]int64, 4),
	}
	r.nextOffer.Store(1) // consider every offer until the reservoir fills
	return r
}

// Capacity returns the total entry bound (0 on a nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.keepCap + r.sampCap
}

// Record classifies a completed request and retains or discards it.
// Kept classes (error, slow, pinned) always enter the kept ring,
// evicting its oldest entry when full; everything else is offered to
// the reservoir. rt must not be mutated after the call.
func (r *Recorder) Record(rt *RequestTrace) {
	if r == nil || rt == nil {
		return
	}
	class := KeptSampled
	switch {
	case rt.Pinned:
		class = KeptPinned
	case rt.Status >= 500:
		class = KeptError
	case rt.Slow || (r.threshold > 0 && time.Duration(rt.DurationUS)*time.Microsecond >= r.threshold):
		class = KeptSlow
	}

	var seq int64
	if class == KeptSampled {
		seq = r.sampleSeen.Add(1)
		if seq < r.nextOffer.Load() {
			return // fast reject: two atomics, no PRNG, no lock, no snapshot
		}
	}

	rt.Kept = class
	if rt.Trace == nil && rt.Span != nil {
		rt.Trace = rt.Span.Trace()
	}
	rt.Span = nil

	r.mu.Lock()
	defer r.mu.Unlock()
	if class == KeptSampled {
		if seq < r.nextOffer.Load() {
			return // a concurrent offer won the slot and advanced the skip
		}
		r.admitSampledLocked(rt, seq)
	} else {
		r.admitKeptLocked(rt)
	}
	r.recorded[class]++
	r.byID[rt.TraceID] = rt
}

func (r *Recorder) admitKeptLocked(rt *RequestTrace) {
	if len(r.kept) < r.keepCap {
		r.kept = append(r.kept, rt)
		return
	}
	r.dropLocked(r.kept[r.keptHead])
	r.kept[r.keptHead] = rt
	r.keptHead = (r.keptHead + 1) % r.keepCap
}

// admitSampledLocked admits one considered reservoir offer and draws
// the gap until the next one. While the reservoir is filling, every
// offer is considered; once full, an admitted offer replaces a uniform
// slot and the next consideration point jumps ahead by a skip drawn
// from Algorithm X's gap distribution — exactly Algorithm R's k/n
// admission probabilities, paid only on admissions.
func (r *Recorder) admitSampledLocked(rt *RequestTrace, seq int64) {
	if len(r.sampled) < r.sampCap {
		r.sampled = append(r.sampled, rt)
		if len(r.sampled) == r.sampCap {
			r.nextOffer.Store(seq + 1 + sampleSkip(seq, r.sampCap))
		} else {
			r.nextOffer.Store(seq + 1)
		}
		return
	}
	slot := rand.IntN(len(r.sampled))
	r.dropLocked(r.sampled[slot])
	r.sampled[slot] = rt
	r.nextOffer.Store(seq + 1 + sampleSkip(seq, r.sampCap))
}

// sampleSkip draws how many reservoir offers after seq to reject before
// the next admission, by inverting the gap's survival function
// P(skip > s) = prod_{i=1..s+1} (1 - k/(seq+i)): one uniform draw, then
// one float multiply per skipped offer — amortized O(1) per offer, with
// no per-offer PRNG use on the reject path.
func sampleSkip(seq int64, k int) int64 {
	u := rand.Float64()
	p := 1.0
	var s int64
	for {
		t := float64(seq + s + 1)
		p *= (t - float64(k)) / t
		if p <= u {
			return s
		}
		s++
	}
}

func (r *Recorder) dropLocked(old *RequestTrace) {
	r.evicted++
	// Two entries can share a trace ID (retries, internal routes); only
	// unmap when the index still points at the evicted entry.
	if r.byID[old.TraceID] == old {
		delete(r.byID, old.TraceID)
	}
}

// Get returns the recorded trace with the given trace ID.
func (r *Recorder) Get(traceID string) (*RequestTrace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.byID[traceID]
	return rt, ok
}

// Index returns every retained trace, newest first.
func (r *Recorder) Index() []*RequestTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*RequestTrace, 0, len(r.kept)+len(r.sampled))
	out = append(out, r.kept...)
	out = append(out, r.sampled...)
	r.mu.Unlock()
	// Sort by start time descending; insertion order within the rings is
	// not chronological once eviction wraps.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].StartUnixNano > out[j-1].StartUnixNano; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RecorderStats is the retention telemetry exported as wfsd_trace_* in
// /metrics.
type RecorderStats struct {
	Entries    int
	Capacity   int
	Recorded   map[string]int64 // admissions by class
	Evicted    int64
	SampleSeen int64 // routine requests offered to the reservoir
}

// Stats snapshots the recorder's retention counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := make(map[string]int64, len(r.recorded))
	for k, v := range r.recorded {
		rec[k] = v
	}
	return RecorderStats{
		Entries:    len(r.kept) + len(r.sampled),
		Capacity:   r.keepCap + r.sampCap,
		Recorded:   rec,
		Evicted:    r.evicted,
		SampleSeen: r.sampleSeen.Load(),
	}
}
