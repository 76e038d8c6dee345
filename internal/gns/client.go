package gns

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses. simnet.Host implements it
// for simulated runs; cmd/ binaries use a TCP adapter.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// Client is the GNS client used by the File Multiplexer. Every call routes
// through one path (see shardclient.go): the key picks its shard on the
// client's ring, reads walk the shard's members and writes follow the
// leaseholder. A client from NewClient holds a one-shard ring whose only
// member is its address, so against an unsharded server it sends exactly
// the requests it always did. Each member keeps one persistent connection
// for request/response calls; Watch calls, which can block for a long
// time, each get a dedicated connection.
type Client struct {
	dialer Dialer
	clock  simclock.Clock
	retry  retry.Policy
	obs    *obs.Observer // nil-safe; receives gns.cache.* / gns.lease.* counters

	// Routing state (see shardclient.go). shardMu is never held across a
	// round trip.
	seeds   []string
	shardMu sync.Mutex
	smap    ShardMap
	ring    *Ring
	shards  map[uint32][]*member // per shard, in map order
	members map[string]*member
	lead    map[uint32]*member // believed leaseholder per shard

	// Lease cache (see cache.go); nil until EnableCache.
	cacheMu  sync.Mutex
	cache    map[Key]cacheEntry
	terms    map[uint32]uint64 // highest term observed per shard
	cacheMax int
	closed   bool
}

// member is one server address and its persistent connection.
type member struct {
	addr string
	mu   *simclock.Mutex // serializes use of the connection
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewClient returns a Client for the GNS at addr: a one-shard ring with
// addr as its only member and seed. It fetches no shard map up front; only
// a sharded server answering msgWrongShard makes it fetch one from addr
// and re-route, and a replica's msgRedirect is followed to the leaseholder.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	c := NewShardedClient(dialer, []string{addr}, clock)
	c.installLocked(ShardMap{VNodes: 1, Shards: []ShardInfo{{Addrs: []string{addr}}}})
	return c
}

// SetRetry installs the resilience policy. GNS calls are stateless, so every
// operation simply redials and re-asks on transport faults; server-reported
// errors are final. The zero policy (the default) preserves the historical
// fail-fast behaviour.
func (c *Client) SetRetry(p retry.Policy) { c.retry = p }

// SetObserver routes the client's cache metrics (gns.cache.{hit,miss}.total)
// to o. Nil keeps them unrecorded.
func (c *Client) SetObserver(o *obs.Observer) { c.obs = o }

func (m *member) dropLocked() {
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
		m.br, m.bw = nil, nil
	}
}

// trip sends one request on m's connection and reads one reply of type
// want, dialing first if needed. t > 0 bounds the round trip.
func (c *Client) trip(m *member, t time.Duration, reqType, want uint8, payload []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn == nil {
		conn, err := c.dialer.Dial(m.addr)
		if err != nil {
			return nil, fmt.Errorf("gns: dial %s: %w", m.addr, err)
		}
		m.conn, m.br, m.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	if t > 0 {
		m.conn.SetDeadline(c.clock.Now().Add(t))
	}
	if err := wire.WriteFrame(m.bw, reqType, payload); err != nil {
		m.dropLocked()
		return nil, err
	}
	if err := m.bw.Flush(); err != nil {
		m.dropLocked()
		return nil, err
	}
	typ, resp, err := wire.ReadFrame(m.br)
	if err != nil {
		m.dropLocked()
		return nil, err
	}
	if t > 0 {
		m.conn.SetDeadline(time.Time{})
	}
	if err := checkReply(typ, resp, want); err != nil {
		// An overload shed leaves the connection good: the retry policy
		// waits out the server's hint and re-asks. A garbled one drops it.
		if typ == admit.MsgShed && !errors.As(err, new(*admit.ShedError)) {
			m.dropLocked()
		}
		return nil, err
	}
	return resp, nil
}

// checkReply classifies one answer frame: nil for the wanted type, else
// the shed, server error, redirect or misroute it carries.
func checkReply(typ uint8, resp []byte, want uint8) error {
	if err := admit.CheckStatus("gns", typ, resp); err != nil {
		return err
	}
	switch typ {
	case want:
		return nil
	case msgRedirect:
		// Not the leaseholder: surface who is, for the write walk to
		// follow. Not Permanent — during an election the right move is to
		// back off and re-ask.
		leader, term, err := decodeRedirect(resp)
		if err != nil {
			return err
		}
		return &redirectError{leader: leader, term: term}
	case msgWrongShard:
		// The server's ring places the key elsewhere: this client's map is
		// stale. Not Permanent — the client drops its map, refetches from
		// the seeds and re-routes.
		epoch, owner, err := decodeWrongShard(resp)
		if err != nil {
			return err
		}
		return &wrongShardError{epoch: epoch, owner: owner}
	}
	return fmt.Errorf("gns: unexpected reply type %d", typ)
}

// keyed encodes the (machine, path) prefix every keyed request starts with.
func keyed(machine, path string) *wire.Encoder {
	return wire.NewEncoder().String(machine).String(path)
}

// Resolve implements Resolver over the network; with EnableCache it serves
// repeated lookups from the lease-coherent cache.
func (c *Client) Resolve(machine, path string) (Mapping, error) {
	if c.CacheEnabled() {
		return c.resolveCached(machine, path)
	}
	resp, err := c.read(machine, path, msgResolve, msgResolveResp, keyed(machine, path).Bytes())
	if err != nil {
		return Mapping{}, err
	}
	d := wire.NewDecoder(resp)
	m := decodeMapping(d)
	return m, d.Err()
}

// ResolveFresh bypasses the lease cache: it resolves remotely and — when
// the cache is on — refreshes the cached entry with the new grant. The FM
// calls it when evidence says its cached view went stale mid-lease (an
// eager-copy claim refused on a version mismatch), converting bounded
// staleness into immediate coherence exactly where it matters.
func (c *Client) ResolveFresh(machine, path string) (Mapping, error) {
	if !c.CacheEnabled() {
		return c.Resolve(machine, path)
	}
	m, l, err := c.resolveLease(machine, path)
	if err != nil {
		return Mapping{}, err
	}
	return c.cacheStore(Key{Machine: machine, Path: path}, m, l), nil
}

// resolveLease resolves with a cache grant attached. It also folds the
// granting shard's term into the client's view, which is what invalidates
// cached leases from a deposed primary. The requested TTL is always 0:
// the server's default.
func (c *Client) resolveLease(machine, path string) (Mapping, Lease, error) {
	resp, err := c.read(machine, path, msgResolveLease, msgResolveLeaseRsp, keyed(machine, path).U32(0).Bytes())
	if err != nil {
		return Mapping{}, Lease{}, err
	}
	m, l, err := decodeLeaseResp(resp)
	if err != nil {
		return Mapping{}, Lease{}, err
	}
	c.noteTerm(l.Shard, l.Term)
	return m, l, nil
}

// Lookup reports the mapping stored for exactly (machine, path), without
// Resolve's wildcard and local-default fallbacks (see Store.Lookup).
func (c *Client) Lookup(machine, path string) (Mapping, bool, error) {
	resp, err := c.read(machine, path, msgLookup, msgLookupResp, keyed(machine, path).Bytes())
	if err != nil {
		return Mapping{}, false, err
	}
	d := wire.NewDecoder(resp)
	found := d.Bool()
	m := decodeMapping(d)
	return m, found, d.Err()
}

// Set installs a mapping and returns the new store version, written
// through the owning shard's leaseholder.
func (c *Client) Set(machine, path string, m Mapping) (uint64, error) {
	e := keyed(machine, path)
	m.encode(e)
	resp, err := c.write(machine, path, msgSet, msgSetResp, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	v := d.U64()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if c.CacheEnabled() {
		// Read-your-writes: fold this client's own update in directly.
		m.Version = v
		c.cacheFoldWrite(Key{Machine: machine, Path: path}, m)
	}
	return v, nil
}

// SetIfAbsent installs m for (machine, path) only if the key is unmapped,
// returning the mapping now in force and whether this client installed it
// (the first-writer-wins commit primitive; see Store.SetIfAbsent).
func (c *Client) SetIfAbsent(machine, path string, m Mapping) (Mapping, bool, error) {
	e := keyed(machine, path)
	m.encode(e)
	resp, err := c.write(machine, path, msgSetIfAbsent, msgSetIfAbsentResp, e.Bytes())
	if err != nil {
		return Mapping{}, false, err
	}
	d := wire.NewDecoder(resp)
	won := d.Bool()
	cur := decodeMapping(d)
	if err := d.Err(); err != nil {
		return Mapping{}, false, err
	}
	if c.CacheEnabled() {
		// The server's answer is authoritative either way: fold it in.
		c.cacheFoldWrite(Key{Machine: machine, Path: path}, cur)
	}
	return cur, won, nil
}

// Delete removes a mapping.
func (c *Client) Delete(machine, path string) error {
	if _, err := c.write(machine, path, msgDelete, msgDeleteResp, keyed(machine, path).Bytes()); err != nil {
		return err
	}
	if c.CacheEnabled() {
		c.cacheInvalidate(Key{Machine: machine, Path: path})
	}
	return nil
}

// List reports all mappings in the store, merged across shards.
func (c *Client) List() ([]Entry, error) {
	if err := c.lockRing(); err != nil {
		return nil, err
	}
	shards := c.smap.Shards
	routes := make([][]*member, len(shards))
	for i, s := range shards {
		routes[i] = c.orderedLocked(s.ID)
	}
	c.shardMu.Unlock()
	var out []Entry
	for i, s := range shards {
		var resp []byte
		err := c.readWalk("gns.call", func() ([]*member, error) { return routes[i], nil },
			func(m *member, t time.Duration) (err error) {
				resp, err = c.trip(m, t, msgList, msgListResp, nil)
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("gns: listing shard %d: %w", s.ID, err)
		}
		d := wire.NewDecoder(resp)
		n := d.U32()
		for j := uint32(0); j < n; j++ {
			var ent Entry
			ent.Key.Machine = d.String()
			ent.Key.Path = d.String()
			ent.Mapping = decodeMapping(d)
			if err := d.Err(); err != nil {
				return nil, err
			}
			out = append(out, ent)
		}
	}
	return out, nil
}

// Watch implements Resolver over the network. Each call uses its own
// connection so long waits do not block other requests; any member of the
// owning shard serves it (replication wakes a replica's watchers too).
// With a retry policy set, a watch broken mid-wait re-registers with the
// same `since` version, so no update is lost.
func (c *Client) Watch(machine, path string, since uint64, timeoutMS int64) (Mapping, bool, error) {
	payload := keyed(machine, path).U64(since).I64(timeoutMS).Bytes()
	var resp []byte
	err := c.readWalk("gns.watch", c.keyRoute(machine, path), func(m *member, t time.Duration) (err error) {
		resp, err = c.watchOnce(m.addr, t, timeoutMS, payload)
		return err
	})
	if err != nil {
		return Mapping{}, false, err
	}
	d := wire.NewDecoder(resp)
	changed := d.Bool()
	m := decodeMapping(d)
	if err := d.Err(); err != nil {
		return Mapping{}, false, err
	}
	return m, changed, nil
}

func (c *Client) watchOnce(addr string, t time.Duration, timeoutMS int64, payload []byte) ([]byte, error) {
	conn, err := c.dialer.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("gns: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if t > 0 {
		// The server may legitimately hold the watch for timeoutMS before
		// answering "unchanged"; the fault deadline starts after that.
		conn.SetDeadline(c.clock.Now().Add(t + time.Duration(timeoutMS)*time.Millisecond))
	}
	if err := wire.WriteFrame(conn, msgWatch, payload); err != nil {
		return nil, err
	}
	typ, resp, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return nil, err
	}
	if err := checkReply(typ, resp, msgWatchResp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Close releases every member's connection. The lease cache needs no
// teardown: there are no watcher goroutines or standing connections to
// stop — that is the point of leases.
func (c *Client) Close() error {
	c.cacheMu.Lock()
	c.closed = true
	c.cacheMu.Unlock()
	c.shardMu.Lock()
	members := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, m)
	}
	c.shardMu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		m.dropLocked()
		m.mu.Unlock()
	}
	return nil
}

var _ Resolver = (*Client)(nil)
var _ Resolver = (*Store)(nil)
var _ FreshResolver = (*Client)(nil)
var _ FreshResolver = (*Store)(nil)
