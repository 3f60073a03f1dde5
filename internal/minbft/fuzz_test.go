package minbft

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// fuzzSteps is how long one fuzz input's schedule runs: long enough for
// two requests to commit and, once the queue drains, for request
// timeouts to fire.
const fuzzSteps = 1500

// fuzzSign marks an entry whose envelope, if it parses as a UI-carrying
// message, is certified afresh by r3's USIG before it is queued; the
// flag's other bits skip that many counter values first.
const fuzzSign = 1

// fuzzEntry encodes one fuzz entry: [to][flags][len u16][envelope].
func fuzzEntry(to, flags byte, envelope []byte) []byte {
	out := []byte{to, flags, 0, 0}
	binary.BigEndian.PutUint16(out[2:], uint16(len(envelope)))
	return append(out, envelope...)
}

// FuzzCoreEnvelope delivers arbitrary envelopes into a group of four cores
// (f = 1). The fuzzer is r3: its own core is Silent, and an entry may carry
// a genuine UI from r3's USIG, so it passes the FIFO gate and reaches the
// protocol handlers rather than stopping at the decoder. Entries are sent
// from r3 or from an outsider, never as an honest replica (the transport
// names the sender). Checked after every step: no panic, no sender's
// buffer at the FIFO gate above its cap, honest cores that reach a
// sequence number hold the same state there, a resend makes its receiver
// send at most resendBatch messages, all to the member that sent it, and a
// state request at most one snapshot, to its sender.
func FuzzCoreEnvelope(f *testing.F) {
	g := newGroup(f, 1, 4, 0)
	req := g.client("alice").sign(write("x", "1"))
	snapshot, err := replica.NewKVStore().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	empty := replica.NewKVStore().Digest()
	for _, e := range []struct {
		to, flags byte
		t         msgType
		msg       any
	}{
		{0, fuzzSign, typePrepare, prepareMsg{View: 0, Seq: 1, Request: req}},
		{1, fuzzSign, typeCommit, commitMsg{View: 0, Seq: 1, ReplicaID: "r3"}},
		{2, fuzzSign, typeCheckpoint, checkpointMsg{ReplicaID: "r3", Seq: 5}},
		{0, fuzzSign | 2<<1, typeViewChange, viewChangeMsg{ReplicaID: "r3", NewView: 1}},
		// A view number past the int range once made the leader index
		// negative and panicked every honest core.
		{1, fuzzSign, typeViewChange, viewChangeMsg{ReplicaID: "r3", NewView: 1<<63 + 1}},
		{1, fuzzSign, typeNewView, newViewMsg{View: 3, LeaderID: "r3"}},
		{2, 0, typeStateRequest, stateRequestMsg{ReplicaID: "r3", MinSeq: 0}},
		{0, 0, typeStateResponse, stateResponseMsg{ReplicaID: "r3", Seq: 1, Digest: empty, Snapshot: snapshot, Members: []string{"r3", "r9"}}},
		{1, 0, typeResend, resendMsg{ReplicaID: "r3"}},
		// A resend naming another member, from r3 or from an outsider,
		// once made the receiver send its log to that member.
		{1, 0, typeResend, resendMsg{ReplicaID: "r0"}},
		{2, 2, typeResend, resendMsg{ReplicaID: "r0"}},
		// So did a state request naming another replica, with a snapshot.
		{0, 2, typeStateRequest, stateRequestMsg{ReplicaID: "r1"}},
		{2, 0, typeRequest, req},
	} {
		data, err := encode(e.t, e.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int64(e.to), fuzzEntry(e.to, e.flags, data))
	}
	// Two state responses that name honest replicas but come from an
	// outsider once installed a made-up store at r0.
	evil := replica.NewKVStore()
	if _, err := evil.Apply(&replica.Request{ClientID: "mallory", Seq: 1, Op: write("x", "evil")}); err != nil {
		f.Fatal(err)
	}
	if snapshot, err = evil.Snapshot(); err != nil {
		f.Fatal(err)
	}
	var forged []byte
	for _, id := range []string{"r1", "r2"} {
		data, err := encode(typeStateResponse, stateResponseMsg{ReplicaID: id, Seq: 1, Digest: evil.Digest(), Snapshot: snapshot, Members: g.members})
		if err != nil {
			f.Fatal(err)
		}
		forged = append(forged, fuzzEntry(0, 2, data)...)
	}
	f.Add(int64(11), forged)
	f.Add(int64(9), fuzzEntry(0, 0, []byte(`{"type":"prepare","data":{"request":null}}`)))
	f.Add(int64(10), []byte("garbage"))

	f.Fuzz(func(t *testing.T, seed int64, entries []byte) {
		g := newGroup(t, seed, 4, 0)
		g.cores["r3"].byzantine = Silent
		g.received = func(m inFlight, sends []outbound) {
			var env envelope
			if len(sends) == 0 || json.Unmarshal(m.data, &env) != nil {
				return
			}
			toOthers := slices.ContainsFunc(sends, func(s outbound) bool { return s.to != m.from })
			switch {
			case env.Type == typeResend && (toOthers || len(sends) > resendBatch || !slices.Contains(g.members, m.from)),
				env.Type == typeStateRequest && (toOthers || len(sends) > 1):
				g.fatalf("a %s from %s made %s send %d messages, to %v", env.Type, m.from, m.to, len(sends), sends[0].to)
			}
		}
		fuzzer := g.usigs["r3"]
		for len(entries) >= 4 {
			to, flags := g.members[entries[0]%4], entries[1]
			n := min(int(binary.BigEndian.Uint16(entries[2:4])), len(entries)-4)
			envelope := entries[4 : 4+n]
			entries = entries[4+n:]
			from := "r3"
			if flags&fuzzSign == 0 && flags&2 != 0 {
				from = "mallory"
			}
			if flags&fuzzSign != 0 {
				if skip := uint64(flags >> 1); skip > 0 {
					var err error
					if fuzzer, err = usig.ResumeHMAC("r3", clusterKey, fuzzer.Counter()+skip); err != nil {
						t.Fatal(err)
					}
				}
				envelope = certify(fuzzer, envelope)
			}
			g.queue = append(g.queue, inFlight{from: from, to: to, data: envelope})
		}
		g.client("alice").send(write("x", "1"))
		g.client("bob").send(write("y", "2"))

		for i := 0; i < fuzzSteps; i++ {
			g.step()
			for _, id := range g.members {
				for peer, buf := range g.cores[id].pendingByPeer {
					if len(buf) > pendingCap {
						g.fatalf("%s buffers %d early messages from %s, cap %d", id, len(buf), peer, pendingCap)
					}
				}
			}
			g.checkAgreement(g.members[:3])
		}
	})
}

// certify replaces the UI of a UI-carrying envelope with a fresh one from
// u; anything else comes back unchanged.
func certify(u *usig.USIG, envelopeBytes []byte) []byte {
	var env envelope
	if json.Unmarshal(envelopeBytes, &env) != nil {
		return envelopeBytes
	}
	sign := func(msg interface{ signedPayload() []byte }, ui *usig.UI) []byte {
		if json.Unmarshal(env.Data, msg) != nil {
			return envelopeBytes
		}
		if p, ok := msg.(*prepareMsg); ok && p.Request == nil {
			return envelopeBytes
		}
		var err error
		if *ui, err = u.CreateUI(msg.signedPayload()); err != nil {
			return envelopeBytes
		}
		data, err := encode(env.Type, msg)
		if err != nil {
			return envelopeBytes
		}
		return data
	}
	switch env.Type {
	case typePrepare:
		var m prepareMsg
		return sign(&m, &m.UI)
	case typeCommit:
		var m commitMsg
		return sign(&m, &m.UI)
	case typeCheckpoint:
		var m checkpointMsg
		return sign(&m, &m.UI)
	case typeViewChange:
		var m viewChangeMsg
		return sign(&m, &m.UI)
	case typeNewView:
		var m newViewMsg
		return sign(&m, &m.UI)
	}
	return envelopeBytes
}

// FuzzConfigOp applies arbitrary values of the reserved config key, one
// per line, to a harness core, as ordered writes of ConfigKey would: any
// signed client can write that key, past EncodeConfigOp's checks. After
// every op the membership is sorted, unique, non-empty and free of "",
// and the core can name its leader.
func FuzzConfigOp(f *testing.F) {
	value := func(action, id string) string {
		data, err := json.Marshal(configOp{Action: action, NodeID: id})
		if err != nil {
			f.Fatal(err)
		}
		return string(data)
	}
	// Evicting every member once left the core with none, and leaderOf
	// divided by zero.
	f.Add(strings.Join([]string{value("evict", "r1"), value("evict", "r2"), value("evict", "r3"), value("evict", "r0")}, "\n"))
	f.Add(value("join", ""))
	f.Add(value("join", "r9") + "\n" + value("evict", "r0") + "\n" + value("join", "r9"))
	f.Add("garbage\n" + value("reboot", "r1"))

	f.Fuzz(func(t *testing.T, script string) {
		c := newGroup(t, 1, 4, 0).cores["r0"]
		for _, v := range strings.Split(script, "\n") {
			c.applyConfigOp(v)
			if len(c.members) == 0 || slices.Contains(c.members, "") || !slices.IsSorted(c.members) ||
				len(slices.Compact(slices.Clone(c.members))) != len(c.members) {
				t.Fatalf("after %q the members are %q", v, c.members)
			}
			_ = c.leader()
		}
	})
}

// FuzzClientReply drives Client.Submit over a stubEndpoint: arbitrary
// frames from outsiders and from the f Byzantine members, then one reply
// from each of the f+1 honest members. Submit must return the honest
// result, because a forged one reaches at most f distinct members: an
// outsider's reply, a reply naming another replica than its sender and a
// member's repeated replies never add a vote. A frame is [sender][kind]
// [len][data]; an odd kind wraps data as a reply's result, kind&2 names
// the replica members[kind>>3] in it and kind&4 the request data.
func FuzzClientReply(f *testing.F) {
	entry := func(sender, kind byte, data string) []byte {
		return append([]byte{sender, kind, byte(len(data))}, data...)
	}
	// Senders 0 and 1 are outsiders, 2 onwards the Byzantine members.
	f.Add(uint8(1), slices.Concat(entry(2, 1, "evil"), entry(2, 1, "evil")))
	f.Add(uint8(1), slices.Concat(entry(2, 1|2|1<<3, "evil"), entry(2, 1, "evil")))
	f.Add(uint8(1), slices.Concat(entry(0, 1, "evil"), entry(2, 1, "evil"), entry(1, 1|2, "evil")))
	f.Add(uint8(2), slices.Concat(entry(2, 1, "evil"), entry(3, 1, "evil"), entry(3, 5, "alice/1"), entry(0, 0, "junk")))
	f.Add(uint8(0), entry(0, 1, "evil"))

	f.Fuzz(func(t *testing.T, fb uint8, frames []byte) {
		tolerated := int(fb % 3)
		var members []string
		for i := 0; i < 2*tolerated+1; i++ {
			members = append(members, fmt.Sprintf("r%d", i))
		}
		senders := append([]string{"mallory", ""}, members[:tolerated]...)
		const request = "alice/1" // the first request alice signs
		reply := func(from, request, result string) []byte {
			data, err := encode(typeReply, replica.Reply{ReplicaID: from, RequestID: request, Result: result})
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		var in []transport.Message
		for len(frames) >= 3 {
			from, kind := senders[int(frames[0])%len(senders)], frames[1]
			n := min(int(frames[2]), len(frames)-3)
			data := string(frames[3 : 3+n])
			frames = frames[3+n:]
			payload := []byte(data)
			if kind&1 != 0 {
				id, req := from, request
				if kind&2 != 0 {
					id = members[int(kind>>3)%len(members)]
				}
				if kind&4 != 0 {
					req = data
				}
				payload = reply(id, req, data)
			}
			in = append(in, transport.Message{From: from, To: "alice", Payload: payload})
		}
		for _, m := range members[tolerated:] {
			in = append(in, transport.Message{From: m, To: "alice", Payload: reply(m, request, "honest")})
		}
		ep := &stubEndpoint{addr: "alice", in: make(chan transport.Message, len(in))}
		for _, m := range in {
			ep.in <- m
		}
		signer, err := replica.NewSigner("alice")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewClient(signer, ep, members, tolerated)
		if err != nil {
			t.Fatal(err)
		}
		cl.RetransmitInterval = time.Hour
		if got, err := cl.Submit(write("x", "honest")); err != nil || got != "honest" {
			t.Fatalf("f = %d: Submit = %q, %v; want the honest result", tolerated, got, err)
		}
	})
}
