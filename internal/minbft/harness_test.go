package minbft

// The deterministic test harness: a group of replica cores over one ordered
// in-flight queue. Every step is a choice drawn from the group's seed: a
// tick of every running core, the delivery of one queued message, which
// the network may drop or duplicate on the way, or (with churn set) a
// crash or restart. A test can also crash, restart or isolate a replica
// at a point of its own. There is no goroutine, no sleep and no clock
// (time is the number of ticks), and clients sign with keys derived from
// their ids, so a seed replays its schedule byte for byte.

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tolerance/internal/replica"
	"tolerance/internal/usig"
)

var clusterKey = []byte("minbft-test-shared-key-32-bytes!")

const (
	// seeds is how many schedules each group test runs.
	seeds = 50
	// stepBudget bounds one wait of a schedule; a wait that needs more
	// steps fails the test.
	stepBudget = 200_000
	// retransmitTicks is how long a client waits for its reply quorum
	// before it sends the request again (200 ms of 5 ms ticks).
	retransmitTicks = 40
	// tickChance is the chance that a step is a tick while messages are in
	// flight; with none in flight every step is a tick.
	tickChance = 0.05
)

// inFlight is one queued message.
type inFlight struct {
	from, to string
	data     []byte
}

// group is a set of replica cores on one seeded schedule.
type group struct {
	t    testing.TB
	seed int64
	rng  *rand.Rand
	k    int
	// members is the membership a starting core is given.
	members []string
	ids     []string // every replica ever started, in start order
	cores   map[string]*core
	usigs   map[string]*usig.USIG
	stores  map[string]*replica.KVStore

	registry *replica.Registry
	verifier *usig.Verifier
	clients  map[string]*testClient
	// clientList holds the clients in creation order.
	clientList []*testClient

	queue    []inFlight
	isolated map[string]bool
	// loss and dup are the chances that a delivered message is dropped,
	// or stays queued to be delivered once more.
	loss, dup float64
	// churn is the chance that a step crashes a running replica or
	// restarts a crashed one (at most f are down at a time).
	churn float64
	ticks uint64
	// stateAt and seenExec are checkAgreement's record.
	stateAt  map[uint64][32]byte
	seenExec map[string]uint64

	// received, when set, sees every message a core takes and the sends
	// it queued in response.
	received func(m inFlight, sends []outbound)
	// sent, when set, sees every message put on the queue.
	sent func(m inFlight)
}

// newGroup starts n cores named r0..r(n-1) tolerating k recoveries, on the
// schedule drawn from seed.
func newGroup(t testing.TB, seed int64, n, k int) *group {
	t.Helper()
	verifier, err := usig.NewHMACVerifier(clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	g := &group{
		t:        t,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		k:        k,
		cores:    make(map[string]*core),
		usigs:    make(map[string]*usig.USIG),
		stores:   make(map[string]*replica.KVStore),
		registry: replica.NewRegistry(),
		verifier: verifier,
		clients:  make(map[string]*testClient),
		isolated: make(map[string]bool),
	}
	for i := 0; i < n; i++ {
		g.members = append(g.members, fmt.Sprintf("r%d", i))
	}
	for _, id := range g.members {
		u, err := usig.NewHMAC(id, clusterKey)
		if err != nil {
			t.Fatal(err)
		}
		g.start(id, u)
	}
	return g
}

// fatalf fails the test with the seed, the tick and every core's state.
func (g *group) fatalf(format string, args ...any) {
	g.t.Helper()
	var b strings.Builder
	for _, id := range g.ids {
		c := g.cores[id]
		if c == nil {
			fmt.Fprintf(&b, "\n  %s: down", id)
			continue
		}
		buffered := make(map[string]int)
		for p, buf := range c.pendingByPeer {
			buffered[p] = len(buf)
		}
		fmt.Fprintf(&b, "\n  %s: view %d (changing %v), executed %d, members %v, gate %v, buffered %v, pending %d",
			id, c.view, c.inViewChange, c.lastExec, c.members, c.peerCounters, buffered, len(c.pendingRequests))
	}
	g.t.Fatalf("seed %d, tick %d: %s%s", g.seed, g.ticks, fmt.Sprintf(format, args...), b.String())
}

// start runs a core for id with trusted component u, an empty store and
// the group's current membership.
func (g *group) start(id string, u *usig.USIG) *core {
	store := replica.NewKVStore()
	c := newCore(Config{
		ID:                 id,
		Members:            g.members,
		K:                  g.k,
		USIG:               u,
		Verifier:           g.verifier,
		Registry:           g.registry,
		Store:              store,
		CheckpointInterval: 5,
	})
	if !slices.Contains(g.ids, id) {
		g.ids = append(g.ids, id)
	}
	g.cores[id], g.usigs[id], g.stores[id] = c, u, store
	return c
}

// crash stops id's core; messages to it are lost until it restarts.
func (g *group) crash(id string) { delete(g.cores, id) }

// restart replaces id's process in place: an empty store and the trusted
// USIG resumed from the old counter (peers drop a reset counter as a
// replay). The new process asks its peers for their state.
func (g *group) restart(id string) {
	g.crash(id)
	u, err := usig.ResumeHMAC(id, clusterKey, g.usigs[id].Counter())
	if err != nil {
		g.t.Fatal(err)
	}
	g.start(id, u)
	g.admin(id, func(c *core) { c.requestStateSync(1) })
}

// admin runs a command on id's core and queues what it sends.
func (g *group) admin(id string, cmd func(*core)) {
	c := g.cores[id]
	cmd(c)
	g.enqueue(id, c.takeSends())
}

// isolate cuts id off: nothing it sends or is sent is queued until heal.
func (g *group) isolate(id string) { g.isolated[id] = true }

func (g *group) heal() { clear(g.isolated) }

func (g *group) enqueue(from string, sends []outbound) {
	for _, s := range sends {
		if g.isolated[from] || g.isolated[s.to] {
			continue
		}
		m := inFlight{from: from, to: s.to, data: s.data}
		if g.sent != nil {
			g.sent(m)
		}
		g.queue = append(g.queue, m)
	}
}

// step takes one choice of the schedule.
func (g *group) step() {
	switch {
	case g.churn > 0 && g.rng.Float64() < g.churn:
		g.flip(g.ids[g.rng.Intn(len(g.ids))])
	case len(g.queue) == 0 || g.rng.Float64() < tickChance:
		g.tick()
	default:
		g.deliverNext()
	}
}

// flip restarts id if it is down, or crashes it if fewer than f replicas
// are down.
func (g *group) flip(id string) {
	switch {
	case g.cores[id] == nil:
		g.restart(id)
	case len(g.ids)-len(g.cores) < (len(g.members)-1-g.k)/2:
		g.crash(id)
	}
}

// tick advances every running core, in start order, and every client's
// retransmission timer by one tick.
func (g *group) tick() {
	g.ticks++
	for _, id := range g.ids {
		if c := g.cores[id]; c != nil {
			c.tick()
			g.enqueue(id, c.takeSends())
		}
	}
	for _, cl := range g.clientList {
		if !cl.done && cl.req != nil && g.ticks-cl.sentAt >= retransmitTicks {
			g.transmit(cl)
		}
	}
}

// deliverNext delivers a message drawn from the queue (so the network
// reorders freely), unless the draw drops it; a duplicated message stays
// queued.
func (g *group) deliverNext() {
	i := g.rng.Intn(len(g.queue))
	m := g.queue[i]
	if g.rng.Float64() >= g.dup {
		g.queue = slices.Delete(g.queue, i, i+1)
	}
	if g.rng.Float64() < g.loss {
		return
	}
	if cl := g.clients[m.to]; cl != nil {
		cl.onReply(m)
		return
	}
	c := g.cores[m.to]
	if c == nil {
		return // crashed, evicted or never started
	}
	c.receive(m.from, m.data)
	sends := c.takeSends()
	if g.received != nil {
		g.received(m, sends)
	}
	g.enqueue(m.to, sends)
}

// runUntil takes steps until done holds.
func (g *group) runUntil(what string, done func() bool) {
	g.t.Helper()
	for n := 0; !done(); n++ {
		if n == stepBudget {
			g.fatalf("%s: not reached in %d steps", what, stepBudget)
		}
		g.step()
	}
}

// catchUp runs the schedule until done holds, asking id for a state
// transfer from minSeq() every 10 ticks meanwhile: a commit that lands
// during a transfer leaves a gap the next transfer closes.
func (g *group) catchUp(id string, minSeq func() uint64, done func() bool) {
	g.t.Helper()
	next := g.ticks
	g.runUntil(id+" catches up", func() bool {
		if done() {
			return true
		}
		if g.ticks >= next {
			next = g.ticks + 10
			g.admin(id, func(c *core) { c.requestStateSync(minSeq()) })
		}
		return false
	})
}

// executed runs the schedule until every core in ids has executed seq.
func (g *group) executed(ids []string, seq uint64) {
	g.t.Helper()
	g.runUntil(fmt.Sprintf("%v execute %d", ids, seq), func() bool {
		for _, id := range ids {
			if g.cores[id].lastExec < seq {
				return false
			}
		}
		return true
	})
}

// checkAgreement fails when a running core in ids holds another store at
// its last executed sequence number than a core that reached the same
// number before: executed prefixes agree.
func (g *group) checkAgreement(ids []string) {
	g.t.Helper()
	if g.stateAt == nil {
		g.stateAt, g.seenExec = make(map[uint64][32]byte), make(map[string]uint64)
	}
	for _, id := range ids {
		c := g.cores[id]
		if c == nil || c.lastExec == g.seenExec[id] {
			continue
		}
		g.seenExec[id] = c.lastExec
		d := g.stores[id].Digest()
		if want, ok := g.stateAt[c.lastExec]; ok && want != d {
			g.fatalf("%s holds another state than its peers at seq %d", id, c.lastExec)
		}
		g.stateAt[c.lastExec] = d
	}
}

// sameState fails unless every core in ids holds the same store digest.
func (g *group) sameState(ids []string) {
	g.t.Helper()
	ref := g.stores[ids[0]].Digest()
	for _, id := range ids[1:] {
		if g.stores[id].Digest() != ref {
			g.fatalf("%s diverged from %s", id, ids[0])
		}
	}
}

// others returns the initial members but the given ones.
func (g *group) others(ids ...string) []string {
	var out []string
	for _, m := range g.members {
		if !slices.Contains(ids, m) {
			out = append(out, m)
		}
	}
	return out
}

// testClient submits signed requests and counts f+1 identical replies, as
// Client does, on the group's schedule.
type testClient struct {
	g       *group
	id      string
	key     ed25519.PrivateKey
	seq     uint64
	members []string
	f       int

	req     *replica.Request // the request in flight
	payload []byte
	sentAt  uint64
	votes   *replica.QuorumCollector
	result  string
	done    bool
}

// client registers a client whose signing key derives from its id.
func (g *group) client(id string) *testClient {
	seed := sha256.Sum256([]byte("client:" + id))
	key := ed25519.NewKeyFromSeed(seed[:])
	if err := g.registry.Register(id, key.Public().(ed25519.PublicKey)); err != nil {
		g.t.Fatal(err)
	}
	cl := &testClient{g: g, id: id, key: key, members: g.members, f: (len(g.members) - 1 - g.k) / 2}
	g.clients[id] = cl
	g.clientList = append(g.clientList, cl)
	return cl
}

// follow points the client at a replica's view of the membership, as
// Client.UpdateMembership does after a reconfiguration.
func (cl *testClient) follow(id string) {
	c := cl.g.cores[id]
	cl.members, cl.f = slices.Clone(c.members), c.tolerance()
}

// sign makes the client's next signed request.
func (cl *testClient) sign(op replica.Op) *replica.Request {
	cl.seq++
	req := &replica.Request{ClientID: cl.id, Seq: cl.seq, Op: op}
	d := req.Digest()
	req.Sig = ed25519.Sign(cl.key, d[:])
	return req
}

// send signs op and sends it to every member the client knows.
func (cl *testClient) send(op replica.Op) {
	req := cl.sign(op)
	payload, err := encode(typeRequest, req)
	if err != nil {
		cl.g.t.Fatal(err)
	}
	votes, err := replica.NewQuorumCollector(req.ID(), cl.f)
	if err != nil {
		cl.g.t.Fatal(err)
	}
	cl.req, cl.payload, cl.votes, cl.done = req, payload, votes, false
	cl.g.transmit(cl)
}

func (g *group) transmit(cl *testClient) {
	cl.sentAt = g.ticks
	for _, m := range cl.members {
		g.enqueue(cl.id, []outbound{{to: m, data: cl.payload}})
	}
}

// onReply counts a replica's reply; replies from outside the client's
// membership, or not from their claimed sender, do not vote.
func (cl *testClient) onReply(m inFlight) {
	var env envelope
	var rep replica.Reply
	if json.Unmarshal(m.data, &env) != nil || env.Type != typeReply || json.Unmarshal(env.Data, &rep) != nil {
		return
	}
	if cl.done || cl.votes == nil || !slices.Contains(cl.members, m.from) || rep.ReplicaID != m.from {
		return
	}
	if result, ok := cl.votes.Add(rep); ok {
		cl.result, cl.done = result, true
	}
}

// submit sends op and runs the schedule until its reply quorum forms.
func (cl *testClient) submit(op replica.Op) string {
	cl.g.t.Helper()
	cl.send(op)
	cl.g.runUntil(cl.id+" gets a reply", func() bool { return cl.done })
	return cl.result
}

func write(key, value string) replica.Op {
	return replica.Op{Type: replica.OpWrite, Key: key, Value: value}
}

func reconfigure(t testing.TB, action, id string) replica.Op {
	t.Helper()
	op, err := EncodeConfigOp(action, id)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// eachSeed runs body on seeds schedules (raceTrim'd).
func eachSeed(t *testing.T, body func(t *testing.T, seed int64)) { seedRange(t, raceTrim(seeds), body) }

// raceTrim is n, or a quarter of n under the race detector.
func raceTrim(n int64) int64 {
	if raceEnabled {
		return n / 4
	}
	return n
}

// seedRange runs body on seeds 1..n, one parallel subtest per seed (groups
// share nothing).
func seedRange(t *testing.T, n int64, body func(t *testing.T, seed int64)) {
	for seed := int64(1); seed <= n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			body(t, seed)
		})
	}
}
