package serve

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/metrics"
)

// DefaultTenant labels traffic that carries no tenant identity. It is
// a real tenant like any other: untagged clients share one DRR
// sub-queue and one quota budget instead of bypassing isolation.
const DefaultTenant = "default"

// TenantHeader carries the caller's tenant identity on the HTTP path.
const TenantHeader = "X-Tenant-ID"

// ErrBadTenant rejects a request whose tenant identifier is malformed.
var ErrBadTenant = errors.New("serve: invalid tenant id")

// DefaultTenantQuantum is the deficit-round-robin quantum, in request
// items, credited to a tenant's sub-queue per scheduler visit. Eight
// items covers the largest offline batch the benchmarks submit, so one
// visit can always serve at least one queued request of any class.
const DefaultTenantQuantum = 8

// DefaultAntiStarveEvery bounds priority-lane starvation: every Nth
// successful dispatch the batcher visits the lanes lowest-priority
// first, guaranteeing offline work a 1-in-N share of dispatches under
// saturating realtime/online load.
const DefaultAntiStarveEvery = 8

// maxTenantStates bounds the per-tenant accounting map. Tenants past
// the cap share one aggregated overflow state (scheduling fairness is
// unaffected: DRR sub-queues key on the wire tenant and are bounded by
// queue depth, not by this cap).
const maxTenantStates = 256

// overflowTenant keys the aggregated state for tenants past
// maxTenantStates. The leading '~' cannot appear in a parsed tenant
// id, so it never collides with a real tenant.
const overflowTenant = "~other"

// maxTenantLen bounds a tenant identifier's length on the wire.
const maxTenantLen = 64

// ParseTenant canonicalizes a wire tenant identifier: empty maps to
// DefaultTenant; otherwise the id must be 1-64 characters drawn from
// [A-Za-z0-9._-].
func ParseTenant(s string) (string, error) {
	if s == "" {
		return DefaultTenant, nil
	}
	if len(s) > maxTenantLen {
		return "", fmt.Errorf("%w: %d chars exceeds %d", ErrBadTenant, len(s), maxTenantLen)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return "", fmt.Errorf("%w: %q", ErrBadTenant, s)
		}
	}
	return s, nil
}

// TenantQuota bounds one tenant's admission budget on a replica. The
// zero value is unlimited.
type TenantQuota struct {
	// RatePerSec is the sustained admission rate in items per second,
	// enforced by a token bucket. 0 = unlimited.
	RatePerSec float64
	// Burst is the token bucket depth in items. 0 = max(RatePerSec,
	// one request's items), i.e. roughly one second of headroom.
	Burst float64
	// MaxQueueShare caps the fraction of the model's MaxQueueDepth
	// this tenant may occupy with queued requests. 0 = no cap.
	MaxQueueShare float64
}

// ParseTenantQuotaSpec parses "tenant:rate=R,burst=B,share=S". The
// tenant "*" applies the quota to every tenant without an explicit
// entry. All keys are optional.
func ParseTenantQuotaSpec(spec string) (string, TenantQuota, error) {
	name, rest, found := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", TenantQuota{}, fmt.Errorf("serve: tenant quota spec %q has no tenant", spec)
	}
	if name != "*" {
		var err error
		if name, err = ParseTenant(name); err != nil {
			return "", TenantQuota{}, err
		}
	}
	var q TenantQuota
	if !found {
		return name, q, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || f < 0 {
			return "", TenantQuota{}, fmt.Errorf("serve: tenant quota spec %q: bad value for %q", spec, k)
		}
		switch strings.TrimSpace(k) {
		case "rate":
			q.RatePerSec = f
		case "burst":
			q.Burst = f
		case "share":
			if f > 1 {
				return "", TenantQuota{}, fmt.Errorf("serve: tenant quota spec %q: share %g > 1", spec, f)
			}
			q.MaxQueueShare = f
		default:
			return "", TenantQuota{}, fmt.Errorf("serve: tenant quota spec %q: unknown key %q", spec, k)
		}
	}
	return name, q, nil
}

// TenantQuotaFlag is a quota map as a repeatable flag.Value: each Set
// parses one ParseTenantQuotaSpec spec into the map, so every binary's
// -tenant-quota binds straight to its config field:
//
//	flag.Var((*serve.TenantQuotaFlag)(&cfg.TenantQuotas), "tenant-quota", usage)
type TenantQuotaFlag map[string]TenantQuota

// Set adds one "tenant:rate=R[,burst=B][,share=S]" spec.
func (f *TenantQuotaFlag) Set(spec string) error {
	tenant, q, err := ParseTenantQuotaSpec(spec)
	if err != nil {
		return err
	}
	if *f == nil {
		*f = TenantQuotaFlag{}
	}
	(*f)[tenant] = q
	return nil
}

// String is empty: the flag has no default.
func (f *TenantQuotaFlag) String() string { return "" }

// QuotaError rejects a submission that exceeded its tenant's quota.
// It unwraps to ErrOverloaded (the request was never admitted;
// retrying after RetryAfter is safe), but carries the tenant and the
// exceeded dimension so the 429 budget stays isolated per tenant.
type QuotaError struct {
	Tenant string
	// Reason names the exceeded dimension: "rate" or "share".
	Reason string
	// RetryAfter estimates when this tenant's budget frees up.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q over %s quota, retry in %s",
		e.Tenant, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

func (e *QuotaError) Unwrap() error { return ErrOverloaded }

// tenantQueue is one tenant's FIFO inside a class lane.
type tenantQueue struct {
	tenant  string
	reqs    []*pending
	deficit int // accumulated DRR credit, in items
}

// drrLane is one class lane: per-tenant FIFO sub-queues drained by
// deficit round-robin. Not safe for concurrent use; the runtime's qmu
// guards it.
type drrLane struct {
	quantum int
	queues  map[string]*tenantQueue
	ring    []*tenantQueue // active tenants in visit order
	cur     int            // ring cursor
	// credited records whether the queue at cur already received its
	// quantum for the current visit, so a pop that resumes on the same
	// queue does not re-credit it.
	credited bool
	reqs     int // total queued requests across tenants
	items    int // total queued items across tenants
}

func newDRRLane(quantum int) *drrLane {
	if quantum < 1 {
		quantum = 1
	}
	return &drrLane{quantum: quantum, queues: make(map[string]*tenantQueue)}
}

// push appends p to its tenant's sub-queue, activating the tenant at
// the back of the ring if it had nothing queued.
func (l *drrLane) push(p *pending) {
	q, ok := l.queues[p.tenant]
	if !ok {
		q = &tenantQueue{tenant: p.tenant}
		l.queues[p.tenant] = q
		l.ring = append(l.ring, q)
	}
	q.reqs = append(q.reqs, p)
	l.reqs++
	l.items += itemsOf(p)
}

// pop serves the next request under deficit round-robin: the cursor's
// queue is credited one quantum per visit and serves heads while its
// deficit covers them; otherwise the cursor advances. A tenant whose
// queue empties leaves the ring and forfeits its deficit. Returns nil
// when the lane is empty.
func (l *drrLane) pop() *pending {
	if len(l.ring) == 0 {
		return nil
	}
	for {
		q := l.ring[l.cur]
		if !l.credited {
			q.deficit += l.quantum
			l.credited = true
		}
		head := q.reqs[0]
		need := itemsOf(head)
		if q.deficit >= need {
			q.deficit -= need
			q.reqs[0] = nil
			q.reqs = q.reqs[1:]
			l.reqs--
			l.items -= need
			if len(q.reqs) == 0 {
				delete(l.queues, q.tenant)
				l.ring = append(l.ring[:l.cur], l.ring[l.cur+1:]...)
				if l.cur >= len(l.ring) {
					l.cur = 0
				}
				l.credited = false
			}
			return head
		}
		l.cur = (l.cur + 1) % len(l.ring)
		l.credited = false
	}
}

func itemsOf(p *pending) int {
	if p.req.Items < 1 {
		return 1
	}
	return p.req.Items
}

// tokenBucket is one tenant's rate-limit state. The zero value is a
// full bucket.
type tokenBucket struct {
	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
}

// take debits n items from the bucket under quota q. On refusal it
// returns the wait until the bucket covers n.
func (b *tokenBucket) take(n float64, q TenantQuota) (bool, time.Duration) {
	if q.RatePerSec <= 0 {
		return true, 0
	}
	burst := q.Burst
	if burst <= 0 {
		burst = q.RatePerSec
	}
	if burst < n {
		// A request larger than the bucket must still be servable.
		burst = n
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastRefill.IsZero() {
		b.tokens = burst
	} else {
		b.tokens += now.Sub(b.lastRefill).Seconds() * q.RatePerSec
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.lastRefill = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	wait := time.Duration((n - b.tokens) / q.RatePerSec * float64(time.Second))
	return false, wait
}

// quotaFor resolves a tenant's quota: an exact entry wins, then the
// "*" wildcard, else unlimited.
func quotaFor(quotas map[string]TenantQuota, tenant string) (TenantQuota, bool) {
	if q, ok := quotas[tenant]; ok {
		return q, true
	}
	q, ok := quotas["*"]
	return q, ok
}

// tenantEntry returns (creating on first use) the per-tenant entry of
// a state map, aggregating into the shared overflow entry past
// maxTenantStates. The caller holds the lock guarding m.
func tenantEntry[T any](m map[string]*T, tenant string) *T {
	if e, ok := m[tenant]; ok {
		return e
	}
	if len(m) >= maxTenantStates {
		tenant = overflowTenant
		if e, ok := m[tenant]; ok {
			return e
		}
	}
	e := new(T)
	m[tenant] = e
	return e
}

// tenantState is one tenant's per-model accounting: queue occupancy
// for the share quota, the rate-limit token bucket, and served/shed
// counters for the per-tenant metrics section.
type tenantState struct {
	queuedReqs  atomic.Int64 // admitted, not yet dispatched/evicted
	queuedItems atomic.Int64
	bucket      tokenBucket

	requests metrics.Counter // requests served
	items    metrics.Counter // items served
	shed     metrics.Counter // quota or queue-full rejections
	expired  metrics.Counter // deadline evictions
	queueLat metrics.LatencyRecorder
}

// tenantState returns the accounting state for a tenant.
func (rt *modelRuntime) tenantState(tenant string) *tenantState {
	rt.tmu.Lock()
	defer rt.tmu.Unlock()
	return tenantEntry(rt.tenants, tenant)
}

// tenantMetrics fills the per-tenant metrics section. The accounting
// map is copied under tmu and snapshotted outside it, so a scrape never
// holds up admission.
func (rt *modelRuntime) tenantMetrics() map[string]TenantMetricsJSON {
	rt.tmu.Lock()
	states := maps.Clone(rt.tenants)
	rt.tmu.Unlock()
	if len(states) == 0 {
		return nil
	}
	out := make(map[string]TenantMetricsJSON, len(states))
	for tenant, ts := range states {
		out[tenant] = TenantMetricsJSON{
			Requests:   ts.requests.Load(),
			Items:      ts.items.Load(),
			Shed:       ts.shed.Load(),
			Expired:    ts.expired.Load(),
			QueueDepth: ts.queuedReqs.Load(),
			QueueMs:    LatencySummary(ts.queueLat.Snapshot()),
		}
	}
	return out
}
