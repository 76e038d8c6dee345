package gns

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

// cacheServer is startServer plus the *Server handle (for request counting)
// and an enabled cache + observer on the client.
func cacheServer(t *testing.T, v *simclock.Virtual, n *simnet.Network) (*Client, *Store, *Server, *obs.Observer) {
	t.Helper()
	store := NewStore(v)
	srv := NewServer(store, v)
	l, err := n.Host("gns").Listen("gns:5000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	v.Go("gns-serve", func() { srv.Serve(l) })
	c := NewClient(n.Host("app"), "gns:5000", v)
	o := obs.New(v)
	c.SetObserver(o)
	c.EnableCache()
	return c, store, srv, o
}

func TestClientCacheHitMissCountersAndZeroRPC(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	v.Run(func() {
		c, store, srv, o := cacheServer(t, v, n)
		defer c.Close()
		var rpcs atomic.Int64
		srv.SetRequestCost(func() { rpcs.Add(1) })
		want := Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: "/d/JOB.SF"}
		store.Set("jagan", "JOB.SF", want)

		first, err := c.Resolve("jagan", "JOB.SF")
		if err != nil {
			t.Fatal(err)
		}
		after := rpcs.Load()
		// Every further resolve inside the lease TTL is served locally:
		// zero RPCs, not just fewer.
		for i := 0; i < 10; i++ {
			m, err := c.Resolve("jagan", "JOB.SF")
			if err != nil {
				t.Fatal(err)
			}
			if m != first {
				t.Errorf("cached resolve = %+v, want %+v", m, first)
			}
		}
		if got := rpcs.Load(); got != after {
			t.Errorf("cached resolves cost %d RPCs, want 0", got-after)
		}
		snap := o.Snapshot().Counters
		if snap["gns.cache.miss.total"] != 1 || snap["gns.cache.hit.total"] != 10 {
			t.Errorf("miss/hit = %d/%d, want 1/10",
				snap["gns.cache.miss.total"], snap["gns.cache.hit.total"])
		}
	})
}

func TestClientCacheLeaseExpiry(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	v.Run(func() {
		c, store, _, o := cacheServer(t, v, n)
		defer c.Close()
		store.Set("jagan", "JOB.SF", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: "/d/JOB.SF"})
		if _, err := c.Resolve("jagan", "JOB.SF"); err != nil {
			t.Fatal(err)
		}

		// A remap by some other party. Within the lease TTL the cache keeps
		// serving the old answer — that bounded staleness is the contract.
		store.Set("jagan", "JOB.SF", Mapping{Mode: ModeCopy, RemoteHost: "dione:6000", RemotePath: "/x/JOB.SF"})
		m, err := c.Resolve("jagan", "JOB.SF")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeRemote {
			t.Errorf("mid-lease resolve = %+v, want the leased (old) mapping", m)
		}

		// Past the TTL the lease is dead: the next resolve re-leases remotely
		// and sees the remap.
		v.Sleep(DefaultLeaseTTL + time.Second)
		m, err = c.Resolve("jagan", "JOB.SF")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeCopy || m.RemoteHost != "dione:6000" {
			t.Errorf("post-TTL resolve = %+v, want the remapped mapping", m)
		}
		snap := o.Snapshot().Counters
		if snap["gns.lease.expire.total"] != 1 {
			t.Errorf("lease expiries = %d, want 1", snap["gns.lease.expire.total"])
		}
		if snap["gns.cache.miss.total"] != 2 {
			t.Errorf("misses = %d, want 2 (initial + post-expiry)", snap["gns.cache.miss.total"])
		}
	})
}

func TestClientCacheReadYourWritesAndDelete(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	v.Run(func() {
		c, _, _, o := cacheServer(t, v, n)
		defer c.Close()
		ver, err := c.Set("jagan", "A.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: "/d/A.DAT"})
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Resolve("jagan", "A.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != ver || m.RemoteHost != "brecca:6000" {
			t.Errorf("resolve after own Set = %+v, want version %d", m, ver)
		}
		snap := o.Snapshot().Counters
		if snap["gns.cache.hit.total"] != 1 || snap["gns.cache.miss.total"] != 0 {
			t.Errorf("own Set not folded into cache: miss/hit = %d/%d",
				snap["gns.cache.miss.total"], snap["gns.cache.hit.total"])
		}

		if err := c.Delete("jagan", "A.DAT"); err != nil {
			t.Fatal(err)
		}
		m, err = c.Resolve("jagan", "A.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeLocal {
			t.Errorf("resolve after Delete = %+v, want local passthrough", m)
		}
		snap = o.Snapshot().Counters
		if snap["gns.cache.miss.total"] != 1 {
			t.Errorf("Delete did not invalidate: miss = %d, want 1", snap["gns.cache.miss.total"])
		}
	})
}

func TestClientCacheEpochRejection(t *testing.T) {
	// A Set racing a lease grant: the client resolves (the grant is in
	// flight, stamped with the pre-Set store version), its own Set lands and
	// folds the newer mapping into the cache, then the stale grant arrives.
	// The grant's epoch is older than the cached version, so it must be
	// rejected — installing it would un-do the client's own write.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	v.Run(func() {
		c, _, _, o := cacheServer(t, v, n)
		defer c.Close()
		ver, err := c.Set("jagan", "R.DAT", Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"})
		if err != nil {
			t.Fatal(err)
		}
		k := Key{Machine: "jagan", Path: "R.DAT"}
		stale := Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", Version: ver - 1}
		got := c.cacheStore(k, stale, Lease{TTL: DefaultLeaseTTL, Epoch: ver - 1})
		if got.Mode != ModeCopy || got.Version != ver {
			t.Errorf("stale grant won: cacheStore = %+v, want the newer cached mapping", got)
		}
		m, err := c.Resolve("jagan", "R.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeCopy {
			t.Errorf("post-race resolve = %+v, want the client's own write", m)
		}
		snap := o.Snapshot().Counters
		if snap["gns.lease.reject.total"] != 1 {
			t.Errorf("epoch rejections = %d, want 1", snap["gns.lease.reject.total"])
		}
	})
}

func TestClientCacheTermInvalidation(t *testing.T) {
	// A lease granted under shard term t is void once the client observes a
	// higher term for that shard (failover: the grantor was deposed).
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	v.Run(func() {
		c, store, _, o := cacheServer(t, v, n)
		defer c.Close()
		store.Set("jagan", "T.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
		k := Key{Machine: "jagan", Path: "T.DAT"}
		c.cacheStore(k, Mapping{Mode: ModeCopy, RemoteHost: "old-primary:6000", Version: 1},
			Lease{TTL: time.Hour, Term: 1, Shard: 0, Epoch: 1})
		c.noteTerm(0, 2)
		m, err := c.Resolve("jagan", "T.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.RemoteHost != "brecca:6000" {
			t.Errorf("post-failover resolve = %+v, want the authoritative mapping", m)
		}
		snap := o.Snapshot().Counters
		if snap["gns.lease.invalidate.total"] != 1 {
			t.Errorf("term invalidations = %d, want 1", snap["gns.lease.invalidate.total"])
		}
	})
}

func TestClientCacheEntryBound(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		store := NewStore(v)
		srv := NewServer(store, v)
		l, err := n.Host("gns").Listen("gns:5000")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		v.Go("gns-serve", func() { srv.Serve(l) })
		c := NewClient(n.Host("app"), "gns:5000", v)
		defer c.Close()
		o := obs.New(v)
		c.SetObserver(o)
		const max = 4
		c.EnableCache()
		c.cacheMax = max
		for i := 0; i < max+3; i++ {
			path := fmt.Sprintf("F%04d.DAT", i)
			store.Set("jagan", path, Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
			if _, err := c.Resolve("jagan", path); err != nil {
				t.Fatal(err)
			}
		}
		c.cacheMu.Lock()
		population := len(c.cache)
		c.cacheMu.Unlock()
		if population != max {
			t.Errorf("cache population = %d, want capped at %d", population, max)
		}
		snap := o.Snapshot().Counters
		if snap["gns.cache.overflow.total"] != 3 {
			t.Errorf("overflow evictions = %d, want 3", snap["gns.cache.overflow.total"])
		}
		// Evicted keys still resolve correctly — the next lookup just pays
		// the round trip again and sees the latest mapping.
		first := "F0000.DAT"
		store.Set("jagan", first, Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"})
		m, err := c.Resolve("jagan", first)
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeCopy || m.RemoteHost != "dione:6000" {
			t.Errorf("evicted-key resolve = %+v, want the latest server mapping", m)
		}
	})
}

func TestClientCacheDisabledByDefault(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: 5 * time.Millisecond})
	v.Run(func() {
		c, store := startServer(t, v, n)
		defer c.Close()
		if c.CacheEnabled() {
			t.Fatal("cache on without EnableCache")
		}
		// Every resolve goes to the server: a server-side change is visible
		// immediately, with no lease delay.
		store.Set("jagan", "B.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
		m, err := c.Resolve("jagan", "B.DAT")
		if err != nil {
			t.Fatal(err)
		}
		store.Set("jagan", "B.DAT", Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"})
		m, err = c.Resolve("jagan", "B.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeCopy {
			t.Errorf("uncached resolve = %+v, want the latest mapping", m)
		}
	})
}

func TestServerLeaseTTLConfigurable(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		c, store, srv, o := cacheServer(t, v, n)
		defer c.Close()
		if srv.Store() != store {
			t.Fatal("Store() accessor mismatch")
		}
		srv.SetLeaseTTL(500 * time.Millisecond)
		store.Set("jagan", "T.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
		if _, err := c.Resolve("jagan", "T.DAT"); err != nil {
			t.Fatal(err)
		}
		// The shortened grant dies after 500ms, well inside the default 5s.
		v.Sleep(600 * time.Millisecond)
		if _, err := c.Resolve("jagan", "T.DAT"); err != nil {
			t.Fatal(err)
		}
		snap := o.Snapshot().Counters
		if snap["gns.lease.expire.total"] != 1 || snap["gns.cache.miss.total"] != 2 {
			t.Errorf("expire/miss = %d/%d, want 1/2",
				snap["gns.lease.expire.total"], snap["gns.cache.miss.total"])
		}
	})
}
