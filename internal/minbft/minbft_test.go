package minbft

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

func TestNormalCaseWriteAndRead(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		cl := g.client("alice")
		if got := cl.submit(write("x", "1")); got != "1" {
			g.fatalf("write result = %q, want %q", got, "1")
		}
		if got := cl.submit(replica.Op{Type: replica.OpRead, Key: "x"}); got != "1" {
			g.fatalf("read = %q, want %q", got, "1")
		}
	})
}

func TestSafetyAllHonestReplicasAgree(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 5, 0)
		cl := g.client("alice")
		const ops = 20
		for i := 0; i < ops; i++ {
			cl.submit(write(fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)))
		}
		// Safety: every replica executed the same sequence => identical state.
		g.executed(g.members, ops)
		g.sameState(g.members)
	})
}

func TestValidityRejectsUnsignedRequests(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		// A forged request: no registered key, no signature.
		forged := &replica.Request{ClientID: "mallory", Seq: 1, Op: write("x", "evil")}
		payload, err := encode(typeRequest, forged)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.members {
			g.enqueue("mallory", []outbound{{to: m, data: payload}})
		}
		g.runUntil("the forgery is delivered", func() bool { return len(g.queue) == 0 })
		for _, id := range g.members {
			if c := g.cores[id]; c.lastExec != 0 || len(c.pendingRequests) != 0 {
				g.fatalf("%s accepted a forged request", id)
			}
		}
	})
}

func TestToleratesByzantineFollower(t *testing.T) {
	// N=3, k=0 => f=1: one byzantine follower must not break the service.
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		victim := g.members[1] // r0 leads view 0
		g.cores[victim].byzantine = Garbage
		cl := g.client("alice")
		for i := 0; i < 5; i++ {
			cl.submit(write("k", fmt.Sprintf("v%d", i)))
		}
		honest := g.others(victim)
		g.executed(honest, 5)
		g.sameState(honest)
	})
}

func TestToleratesSilentFollower(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		g.cores[g.members[1]].byzantine = Silent
		g.client("alice").submit(write("a", "b"))
	})
}

func TestViewChangeOnLeaderCrash(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		leader := g.cores["r0"].leader()
		g.crash(leader)
		g.client("alice").submit(write("x", "after-crash"))
		// The survivors installed a new view with a different leader.
		for _, id := range g.others(leader) {
			if c := g.cores[id]; c.view == 0 || c.leader() == leader {
				g.fatalf("%s in view %d still believes %s leads", id, c.view, leader)
			}
		}
	})
}

func TestViewChangeOnSilentByzantineLeader(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 5, 0)
		g.cores[g.cores["r0"].leader()].byzantine = Silent
		g.client("alice").submit(write("x", "1"))
	})
}

func TestCheckpointsBecomeStable(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		cl := g.client("alice")
		// The checkpoint interval is 5; 12 ops cross two checkpoints.
		for i := 0; i < 12; i++ {
			cl.submit(write("k", fmt.Sprint(i)))
		}
		g.runUntil("checkpoint 10 is stable", func() bool { return g.cores["r0"].stableSeq >= 10 })
	})
}

func TestStateTransferForLaggingReplica(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		// Isolate r2, run traffic, then heal and let it catch up.
		g.isolate("r2")
		cl := g.client("alice")
		for i := 0; i < 8; i++ {
			cl.submit(write(fmt.Sprintf("k%d", i), "v"))
		}
		g.heal()
		// Ask for a sync explicitly (a recovered node does this on restart).
		g.admin("r2", func(c *core) { c.requestStateSync(1) })
		g.runUntil("r2 catches up", func() bool {
			return g.stores["r2"].Digest() == g.stores["r0"].Digest() && g.cores["r2"].lastExec >= 8
		})
	})
}

// TestRestartInPlaceCatchesUp restarts two backups in place while a client
// keeps committing — the real machinery of a §VII-C recovery. Every request
// still commits, each restarted process (USIG resumed, store empty) catches
// up with the group's execution through state transfer, and a restart is
// not an eviction: membership is unchanged.
func TestRestartInPlaceCatchesUp(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 4, 1)
		cl := g.client("alice")
		commit := func(from, to int) {
			for i := from; i < to; i++ {
				cl.submit(write(fmt.Sprintf("k%d", i), "v"))
			}
		}
		leader := g.cores["r0"].leader()
		backups := g.others(leader)
		// Commits between the restarts land them mid-stream, not between
		// idle periods.
		commit(0, 5)
		g.restart(backups[0])
		commit(5, 10)
		g.restart(backups[1])
		commit(10, 15)

		// One sequence number per committed operation.
		const target = 15
		for _, id := range backups[:2] {
			g.catchUp(id, func() uint64 { return target }, func() bool { return g.cores[id].lastExec >= target })
			if got := len(g.cores[id].members); got != 4 {
				g.fatalf("%s sees %d members after its restart, want 4", id, got)
			}
		}
		if got := len(g.cores[leader].members); got != 4 {
			g.fatalf("membership changed to %d members by restarts", got)
		}
	})
}

// TestViewChangeAfterPrimaryCrashThenEvict crashes the view-0 primary: the
// next request commits only after a view change elects a new primary, which
// then orders the eviction of the crashed ex-primary (Fig 17f); every
// survivor converges on the smaller membership and the service continues.
func TestViewChangeAfterPrimaryCrashThenEvict(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 4, 1)
		cl := g.client("bob")
		cl.submit(write("a", "1"))
		primary := g.cores["r0"].leader()
		g.crash(primary)
		survivors := g.others(primary)

		cl.submit(write("b", "2"))
		// The request committed on f+1 replies; every survivor then
		// installs the new view, which another replica leads.
		g.runUntil("the survivors leave view 0", func() bool {
			return !slices.ContainsFunc(survivors, func(id string) bool { return g.cores[id].view == 0 })
		})
		for _, id := range survivors {
			if g.cores[id].leader() == primary {
				g.fatalf("%s still follows the crashed primary", id)
			}
		}

		cl.submit(reconfigure(t, "evict", primary))
		// The evict op commits on f+1 replies, so a backup that missed the
		// view change's traffic can lag behind it; state transfer, which
		// carries the membership, brings it up.
		head := func() uint64 {
			var h uint64
			for _, s := range survivors {
				h = max(h, g.cores[s].lastExec)
			}
			return h
		}
		for _, id := range survivors {
			g.catchUp(id, head, func() bool {
				m := g.cores[id].members
				return len(m) == 3 && !slices.Contains(m, primary)
			})
		}
		cl.follow(survivors[0])
		cl.submit(write("c", "3"))
	})
}

func TestReconfigurationJoin(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		cl := g.client("admin")
		// Start the new replica first so it can receive protocol traffic.
		g.members = append(g.members, "r3")
		u, err := usig.NewHMAC("r3", clusterKey)
		if err != nil {
			t.Fatal(err)
		}
		g.start("r3", u)

		cl.submit(reconfigure(t, "join", "r3"))
		// All original replicas now list r3.
		g.runUntil("the join applies", func() bool {
			for _, id := range []string{"r0", "r1", "r2"} {
				if len(g.cores[id].members) != 4 {
					return false
				}
			}
			return true
		})
		// The joiner syncs state and can participate.
		g.admin("r3", func(c *core) { c.requestStateSync(1) })
		cl.follow("r0")
		cl.submit(write("post-join", "yes"))
	})
}

func TestReconfigurationEvictNonLeader(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 5, 0)
		cl := g.client("admin")
		leader := g.cores["r0"].leader()
		victim := g.others(leader)[0]
		cl.submit(reconfigure(t, "evict", victim))
		g.runUntil("the leader applies the eviction", func() bool { return len(g.cores[leader].members) == 4 })
		// Service continues with the smaller group.
		cl.follow(leader)
		cl.submit(write("post-evict", "yes"))
	})
}

// TestReconfigurationEvictLeaderTriggersViewChange evicts the leader and
// leaves the rest to the protocol: the test sends no state request. Every
// survivor must end in a later view, out of the view change, with the
// smaller membership, whether it executed the eviction or joined the view
// change first.
func TestReconfigurationEvictLeaderTriggersViewChange(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 5, 0)
		cl := g.client("admin")
		leader := g.cores["r0"].leader()
		cl.submit(reconfigure(t, "evict", leader))
		g.isolate(leader) // the evicted node is gone
		survivors := g.others(leader)
		cl.follow(survivors[0])
		cl.submit(write("after", "evict-leader"))
		g.runUntil("every survivor installs a view without the evicted node", func() bool {
			for _, id := range survivors {
				c := g.cores[id]
				if c.view == 0 || c.inViewChange || slices.Contains(c.members, leader) {
					return false
				}
			}
			return true
		})
	})
}

func TestLossyNetworkStillCommits(t *testing.T) {
	// The paper's emulation uses 0.05%-0.1% loss; we stress with 5%.
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		g.loss = 0.05
		cl := g.client("alice")
		for i := 0; i < 5; i++ {
			cl.submit(write("k", fmt.Sprint(i)))
		}
	})
}

// TestSafetyUnderChurn crashes and restarts replicas at steps drawn from
// the seed, at most f at a time, on a lossy, duplicating network while two
// clients keep writing. Progress is not promised (a restarted replica's
// FIFO gate can wait for counters its peers no longer hold); agreement is:
// every replica that reaches a sequence number holds the same state there.
// The view change does not yet guarantee it: about 2 % of seeds past these
// fail (ROADMAP item 20).
func TestSafetyUnderChurn(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 4, 0)
		g.loss, g.dup, g.churn = 0.02, 0.02, 0.004
		clients := []*testClient{g.client("alice"), g.client("bob")}
		for i := 0; i < 1500; i++ {
			for _, cl := range clients {
				if cl.req == nil || cl.done {
					cl.send(write(cl.id, fmt.Sprint(i)))
				}
			}
			g.step()
			g.checkAgreement(g.members)
		}
	})
}

// TestFIFOGateBuffersOutOfOrder exercises the anti-equivocation FIFO rule
// under pipelining: ten clients submit at once, so each replica sees the
// leader's counters out of order and must still execute one sequence.
func TestFIFOGateBuffersOutOfOrder(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64) {
		g := newGroup(t, seed, 3, 0)
		var clients []*testClient
		for i := 0; i < 10; i++ {
			cl := g.client(fmt.Sprintf("client-%d", i))
			cl.send(write(fmt.Sprintf("k%d", i), "v"))
			clients = append(clients, cl)
		}
		g.runUntil("every client gets a reply", func() bool {
			for _, cl := range clients {
				if !cl.done {
					return false
				}
			}
			return true
		})
		g.executed(g.members, 10)
		g.sameState(g.members)
	})
}

// TestNewLeaderProposesInArrivalOrder crashes the leader with three
// requests pending at every backup. The new leader proposes them in the
// order it first saw them, not in map order, so a seed replays one
// (seq -> request) assignment and one byte stream every time.
func TestNewLeaderProposesInArrivalOrder(t *testing.T) {
	run := func(seed int64) (proposals []string, trace [32]byte) {
		g := newGroup(t, seed, 4, 0)
		g.crash("r0")
		h := sha256.New()
		g.sent = func(m inFlight) {
			fmt.Fprintf(h, "%s>%s:%s\n", m.from, m.to, m.data)
			var env envelope
			var p prepareMsg
			if m.from == "r1" && m.to == "r2" && json.Unmarshal(m.data, &env) == nil && env.Type == typePrepare &&
				json.Unmarshal(env.Data, &p) == nil {
				proposals = append(proposals, fmt.Sprintf("%d:%s", p.Seq, p.Request.ID()))
			}
		}
		var clients []*testClient
		for _, id := range []string{"alice", "bob", "carol"} {
			cl := g.client(id)
			cl.send(write(id, "v"))
			clients = append(clients, cl)
		}
		g.runUntil("every client gets a reply", func() bool {
			return !slices.ContainsFunc(clients, func(cl *testClient) bool { return !cl.done })
		})
		copy(trace[:], h.Sum(nil))
		return proposals, trace
	}
	const seed = 7
	want, wantTrace := run(seed)
	if len(want) < 3 {
		t.Fatalf("the new leader proposed %v, want all three requests", want)
	}
	for i := 1; i < 20; i++ {
		got, trace := run(seed)
		if !slices.Equal(got, want) || trace != wantTrace {
			t.Fatalf("replay %d: proposals %v, want %v (trace equal: %v)", i, got, want, trace == wantTrace)
		}
	}
}

// stubEndpoint is an Endpoint whose inbound traffic a test queues on in
// and whose sends go nowhere.
type stubEndpoint struct {
	addr string
	in   chan transport.Message
}

func (e *stubEndpoint) Addr() string                      { return e.addr }
func (e *stubEndpoint) Send(string, []byte) error         { return nil }
func (e *stubEndpoint) Receive() <-chan transport.Message { return e.in }
func (e *stubEndpoint) Close() error                      { return nil }

func TestConfigValidation(t *testing.T) {
	ep := &stubEndpoint{addr: "x"}
	u, _ := usig.NewHMAC("x", clusterKey)
	v, _ := usig.NewHMACVerifier(clusterKey)
	reg := replica.NewRegistry()
	store := replica.NewKVStore()

	base := Config{ID: "x", Members: []string{"x", "y"}, Endpoint: ep,
		USIG: u, Verifier: v, Registry: reg, Store: store}
	if _, err := NewReplica(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	bad := base
	bad.Members = []string{"a", "b"}
	if _, err := NewReplica(bad); err == nil {
		t.Error("id not in members should fail")
	}
	bad = base
	bad.Members = []string{"x"}
	if _, err := NewReplica(bad); err == nil {
		t.Error("single member should fail")
	}
	bad = base
	bad.K = -1
	if _, err := NewReplica(bad); err == nil {
		t.Error("negative k should fail")
	}
	r, err := NewReplica(base)
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestEncodeConfigOpValidation(t *testing.T) {
	if _, err := EncodeConfigOp("reboot", "r1"); err == nil {
		t.Error("unknown action should fail")
	}
	if _, err := EncodeConfigOp("join", ""); err == nil {
		t.Error("empty node should fail")
	}
	op, err := EncodeConfigOp("join", "r9")
	if err != nil {
		t.Fatal(err)
	}
	if op.Key != ConfigKey {
		t.Errorf("key = %q", op.Key)
	}
}

func TestToleranceThreshold(t *testing.T) {
	// f = (N-1-k)/2 per Prop. 1.
	if f := newGroup(t, 1, 5, 0).cores["r0"].tolerance(); f != 2 {
		t.Errorf("f = %d, want 2 for N=5, k=0", f)
	}
	if f := newGroup(t, 1, 4, 1).cores["r0"].tolerance(); f != 1 {
		t.Errorf("f = %d, want 1 for N=4, k=1", f)
	}
}
