package gns

import (
	"time"
)

// Client-side resolve cache, lease/TTL edition. Every FM OPEN pays a GNS
// round trip; for a long-running component reopening the same handful of
// files that is pure latency. EnableCache memoises Resolve answers under
// the server's lease grant: each miss goes remote once (msgResolveLease)
// and the reply's TTL says how long the answer may be served locally —
// zero RPCs, zero connections, zero server-side state per cached key. The
// PR 5 design kept one Watch long-poll connection per cached key instead;
// at "millions of clients" that is a connection per client per key, which
// is exactly what the Globus replica-catalogue soft-state model exists to
// avoid.
//
// Coherence is three rules, checked in this order on every cache read:
//
//   - Term: a lease granted under shard term t dies the moment the client
//     observes term > t for that shard (a replica was promoted; the old
//     primary's grants are void). Counted as gns.lease.invalidate.total.
//   - TTL: past the expiry instant the entry is dead and the next resolve
//     goes remote. Staleness after another client's Set is bounded by the
//     TTL. Counted as gns.lease.expire.total.
//   - Epoch: a grant carries the store version its answer was read at. If
//     the client already holds a newer version for the key — its own Set
//     raced the grant's flight — the grant is rejected, keeping
//     read-your-writes. Counted as gns.lease.reject.total.
//
// This client's own Set/Delete still update the cache synchronously, so a
// single-client workflow never observes staleness; the FM's stale-claim
// re-resolve (core: ResolveFresh) closes the cross-client remap window
// without waiting out the TTL.

// DefaultCacheMaxEntries bounds the cache population. Overflowing it does
// not bypass the cache: the soonest-expiring entry is evicted (it has the
// least lease value left) and the overflow is counted.
const DefaultCacheMaxEntries = 512

// cacheEntry is one leased answer.
type cacheEntry struct {
	m      Mapping
	expire time.Time
	term   uint64 // granting term; dead once the shard's observed term passes it
	shard  uint32
}

// EnableCache turns on lease-based Resolve memoisation, bounded at
// DefaultCacheMaxEntries entries and leased for the server's default TTL.
// Call it before the client is shared across goroutines.
func (c *Client) EnableCache() {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache != nil {
		return
	}
	c.cache = make(map[Key]cacheEntry)
	if c.terms == nil {
		c.terms = make(map[uint32]uint64)
	}
	c.cacheMax = DefaultCacheMaxEntries
}

// CacheEnabled reports whether EnableCache has been called.
func (c *Client) CacheEnabled() bool {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	return c.cache != nil
}

// resolveCached serves machine/path from the cache while its lease holds,
// re-leasing remotely otherwise.
func (c *Client) resolveCached(machine, path string) (Mapping, error) {
	k := Key{Machine: machine, Path: path}
	now := c.clock.Now()
	c.cacheMu.Lock()
	if ent, ok := c.cache[k]; ok {
		switch {
		case ent.term < c.terms[ent.shard]:
			// The granting primary was deposed; its leases are void.
			delete(c.cache, k)
			c.cacheMu.Unlock()
			c.obs.Counter("gns.lease.invalidate.total").Inc()
		case now.Before(ent.expire):
			c.cacheMu.Unlock()
			c.obs.Counter("gns.cache.hit.total").Inc()
			return ent.m, nil
		default:
			delete(c.cache, k)
			c.cacheMu.Unlock()
			c.obs.Counter("gns.lease.expire.total").Inc()
		}
	} else {
		c.cacheMu.Unlock()
	}
	c.obs.Counter("gns.cache.miss.total").Inc()
	m, l, err := c.resolveLease(machine, path)
	if err != nil {
		return m, err
	}
	return c.cacheStore(k, m, l), nil
}

// cacheStore installs a leased answer, subject to epoch rejection: a grant
// older than what the client already knows for the key (its own Set raced
// the grant) is discarded and the newer cached mapping returned instead.
func (c *Client) cacheStore(k Key, m Mapping, l Lease) Mapping {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache == nil || c.closed {
		return m
	}
	if cur, ok := c.cache[k]; ok && cur.m.Version > l.Epoch {
		c.obs.Counter("gns.lease.reject.total").Inc()
		return cur.m
	}
	c.reserveLocked(k)
	c.cache[k] = cacheEntry{m: m, expire: c.clock.Now().Add(l.TTL), term: l.Term, shard: l.Shard}
	return m
}

// cacheFoldWrite folds this client's own Set/SetIfAbsent answer in
// directly (read-your-writes), leased under the shard's current term for
// the server's default TTL.
func (c *Client) cacheFoldWrite(k Key, m Mapping) {
	shard := c.shardIDFor(k.Machine, k.Path)
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache == nil || c.closed {
		return
	}
	if cur, ok := c.cache[k]; ok && cur.m.Version > m.Version {
		return
	}
	c.reserveLocked(k)
	c.cache[k] = cacheEntry{m: m, expire: c.clock.Now().Add(DefaultLeaseTTL), term: c.terms[shard], shard: shard}
}

// reserveLocked makes room for k under the entry bound, evicting the
// soonest-expiring entry (the least lease value left) when full.
func (c *Client) reserveLocked(k Key) {
	if _, ok := c.cache[k]; ok || len(c.cache) < c.cacheMax {
		return
	}
	var victim Key
	var soonest time.Time
	first := true
	for vk, ent := range c.cache {
		if first || ent.expire.Before(soonest) {
			victim, soonest, first = vk, ent.expire, false
		}
	}
	delete(c.cache, victim)
	c.obs.Counter("gns.cache.overflow.total").Inc()
}

// cacheInvalidate drops k from the cache (used after Delete).
func (c *Client) cacheInvalidate(k Key) {
	c.cacheMu.Lock()
	delete(c.cache, k)
	c.cacheMu.Unlock()
}

// noteTerm folds an observed shard term into the client's view; raising it
// voids every cached lease granted under a lower term (checked lazily at
// the next cache read).
func (c *Client) noteTerm(shard uint32, term uint64) {
	if term == 0 {
		return
	}
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.terms == nil {
		c.terms = make(map[uint32]uint64)
	}
	if term > c.terms[shard] {
		c.terms[shard] = term
	}
}
