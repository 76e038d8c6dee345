package gns

import (
	"errors"
	"fmt"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/simclock"
)

// Client routing. Every call goes straight to the shard owning the key on
// the client's consistent-hash ring — no proxy tier, no extra hop. Reads
// walk the shard's members leaseholder-first (replicas serve reads);
// writes follow msgRedirect answers to the current leaseholder, so a
// failover costs one extra round trip the first time and nothing after. A
// single address is simply a one-shard ring: NewClient installs it up
// front, NewShardedClient fetches the cluster's ShardMap from a seed at
// first use, and either refetches from its seeds after a msgWrongShard.

// NewShardedClient returns a Client that routes per-key to the shards
// described by the map served at any of the seed addresses (typically one
// member per shard, but a single seed suffices). SetRetry/SetObserver/
// EnableCache apply as on a NewClient.
func NewShardedClient(dialer Dialer, seeds []string, clock simclock.Clock) *Client {
	if len(seeds) == 0 {
		panic("gns: NewShardedClient needs at least one seed")
	}
	return &Client{
		dialer:  dialer,
		clock:   clock,
		seeds:   append([]string(nil), seeds...),
		members: make(map[string]*member),
	}
}

// attemptTimeout bounds one member's round trip in a walk over n members:
// the retry policy's per-attempt timeout, or none — except that with
// another member to walk to, a blackholed one must fail over instead of
// hanging, so the walk falls back to retry.DefaultAttemptTimeout.
func (c *Client) attemptTimeout(n int) time.Duration {
	if t := c.retry.Timeout(); t > 0 || n < 2 {
		return t
	}
	return retry.DefaultAttemptTimeout
}

// noteMisroute reacts to a msgWrongShard answer: the server's ring
// disagrees with ours, so our map is stale (a ring change bumped the
// epoch). Drop the map and the leaseholder hints; the next route refetches
// from the seeds. The triggering call stays non-permanent, so the retry
// policy re-runs it against the fresh map.
func (c *Client) noteMisroute() {
	c.obs.Counter("gns.shard.remap.total").Inc()
	c.shardMu.Lock()
	c.ring = nil
	c.shardMu.Unlock()
}

// lockRing returns holding shardMu with a ring installed, first fetching
// the map from the seeds if there is none. The fetch runs outside the
// lock: a goroutine blocked on a plain mutex looks runnable to the virtual
// clock, so holding one across a round trip would freeze simulated time.
func (c *Client) lockRing() error {
	c.shardMu.Lock()
	if c.ring != nil {
		return nil
	}
	c.shardMu.Unlock()
	t := c.attemptTimeout(len(c.seeds))
	var lastErr error
	for _, seed := range c.seeds {
		resp, err := c.trip(c.member(seed), t, msgShardMap, msgShardMapResp, nil)
		if err != nil {
			lastErr = err
			continue
		}
		sm, err := DecodeShardMap(resp)
		if err == nil {
			err = sm.Validate()
		}
		if err != nil {
			lastErr = err
			continue
		}
		c.shardMu.Lock()
		c.installLocked(sm)
		return nil
	}
	return fmt.Errorf("gns: no seed served a shard map: %w", lastErr)
}

// installLocked makes sm the routing map, with fresh leaseholder hints.
// Members persist across maps, connections included.
func (c *Client) installLocked(sm ShardMap) {
	c.smap, c.ring = sm, NewRing(sm)
	c.shards = make(map[uint32][]*member, len(sm.Shards))
	c.lead = make(map[uint32]*member, len(sm.Shards))
	for _, s := range sm.Shards {
		ms := make([]*member, len(s.Addrs))
		for i, a := range s.Addrs {
			ms[i] = c.memberLocked(a)
		}
		c.shards[s.ID] = ms
	}
}

// memberLocked returns the member for one address, creating it on first
// use.
func (c *Client) memberLocked(addr string) *member {
	m, ok := c.members[addr]
	if !ok {
		m = &member{addr: addr, mu: simclock.NewMutex(c.clock)}
		c.members[addr] = m
	}
	return m
}

func (c *Client) member(addr string) *member {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	return c.memberLocked(addr)
}

// orderedLocked lists shard sid's members believed-leaseholder-first. It
// shares the map's slice when the leaseholder already leads it.
func (c *Client) orderedLocked(sid uint32) []*member {
	ms, first := c.shards[sid], c.lead[sid]
	if first == nil || first == ms[0] {
		return ms
	}
	out := append(make([]*member, 0, len(ms)+1), first)
	for _, m := range ms {
		if m != first {
			out = append(out, m)
		}
	}
	return out
}

// route reports the owning shard's ID and members, ordered
// believed-leaseholder-first.
func (c *Client) route(machine, path string) (uint32, []*member, error) {
	if err := c.lockRing(); err != nil {
		return 0, nil, err
	}
	defer c.shardMu.Unlock()
	sid := c.ring.ShardFor(machine, path)
	return sid, c.orderedLocked(sid), nil
}

// keyRoute is route as a read walk's per-attempt member list.
func (c *Client) keyRoute(machine, path string) func() ([]*member, error) {
	return func() ([]*member, error) {
		_, ms, err := c.route(machine, path)
		return ms, err
	}
}

// shardIDFor reports the owning shard for a key, 0 while no ring is known.
func (c *Client) shardIDFor(machine, path string) uint32 {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	if c.ring == nil {
		return 0
	}
	return c.ring.ShardFor(machine, path)
}

// setLeader records the believed leaseholder for a shard.
func (c *Client) setLeader(sid uint32, m *member) {
	c.shardMu.Lock()
	c.lead[sid] = m
	c.shardMu.Unlock()
}

// stopWalk classifies one member's failure for either walk and returns
// the error that ends the attempt, or nil to walk on to the next member. A
// misroute drops the map (the retry policy re-routes); a server-answered
// error is final.
func (c *Client) stopWalk(err error) error {
	var ws *wrongShardError
	if errors.As(err, &ws) {
		c.noteMisroute()
		return err
	}
	var srvErr *admit.RemoteError
	if errors.As(err, &srvErr) {
		return retry.Permanent(err)
	}
	return nil
}

// read runs one keyed request through the read walk and returns the reply
// payload.
func (c *Client) read(machine, path string, reqType, want uint8, payload []byte) ([]byte, error) {
	var resp []byte
	err := c.readWalk("gns.call", c.keyRoute(machine, path), func(m *member, t time.Duration) (err error) {
		resp, err = c.trip(m, t, reqType, want, payload)
		return err
	})
	return resp, err
}

// readWalk runs one read: each attempt of the retry policy (under op)
// routes afresh and asks the members in turn, leaseholder first — any
// member serves reads (staleness is bounded by one heartbeat, inside the
// lease contract).
func (c *Client) readWalk(op string, route func() ([]*member, error), do func(m *member, t time.Duration) error) error {
	return c.retry.Do(op, func(int) error {
		members, err := route()
		if err != nil {
			return err
		}
		t := c.attemptTimeout(len(members))
		for _, m := range members {
			if err = do(m, t); err == nil {
				return nil
			}
			if stop := c.stopWalk(err); stop != nil {
				return stop
			}
		}
		return err
	})
}

// write runs one keyed write through the owning shard's leaseholder,
// following msgRedirect answers. Mid-election (a redirect naming no
// leader, or no member reachable) the walk fails and the retry policy
// backs off and re-runs it — by the next attempt a replica has usually
// promoted itself.
func (c *Client) write(machine, path string, reqType, want uint8, payload []byte) ([]byte, error) {
	var resp []byte
	err := c.retry.Do("gns.call", func(int) error {
		sid, members, err := c.route(machine, path)
		if err != nil {
			return err
		}
		t := c.attemptTimeout(len(members))
		var tried map[*member]bool
		m := members[0]
		for hops := 0; hops < len(members)+2; hops++ {
			if resp, err = c.trip(m, t, reqType, want, payload); err == nil {
				c.setLeader(sid, m)
				return nil
			}
			var rd *redirectError
			if errors.As(err, &rd) {
				c.noteTerm(sid, rd.term)
				if rd.leader != "" && rd.leader != m.addr {
					m = c.member(rd.leader)
					c.setLeader(sid, m)
					continue
				}
			} else if stop := c.stopWalk(err); stop != nil {
				return stop
			}
			// Transport fault or a leaderless redirect: try the next
			// member we have not asked yet.
			if tried == nil {
				tried = make(map[*member]bool, len(members))
			}
			tried[m] = true
			var next *member
			for _, a := range members {
				if !tried[a] {
					next = a
					break
				}
			}
			if next == nil {
				break
			}
			m = next
		}
		return err
	})
	return resp, err
}
