package minbft

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"tolerance/internal/replica"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// TestMinBFTOverTCP runs a 3-replica group over real TCP sockets — the
// cross-process deployment path of the transport layer.
func TestMinBFTOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	verifier, err := usig.NewHMACVerifier(clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	registry := replica.NewRegistry()

	// Endpoints first: member addresses are the TCP listen addresses.
	var endpoints []*transport.TCPEndpoint
	var members []string
	for i := 0; i < 3; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, ep)
		members = append(members, ep.Addr())
	}
	var replicas []*Replica
	for i, ep := range endpoints {
		u, err := usig.NewHMAC(members[i], clusterKey)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(Config{
			ID:       members[i],
			Members:  members,
			Endpoint: ep,
			USIG:     u,
			Verifier: verifier,
			Registry: registry,
			Store:    replica.NewKVStore(),
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
		for _, ep := range endpoints {
			_ = ep.Close()
		}
	}()

	signer, err := replica.NewSigner("tcp-client")
	if err != nil {
		t.Fatal(err)
	}
	if err := registry.Register("tcp-client", signer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	clientEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientEP.Close()
	// The client's "address" for replies is its TCP listen address, but
	// requests carry ClientID = signer ID; replicas reply to the request's
	// ClientID, so the client must be addressable by it. Use the listen
	// address as the client ID instead.
	signer2, err := replica.NewSigner(clientEP.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := registry.Register(clientEP.Addr(), signer2.PublicKey()); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(signer2, clientEP, members, 1)
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 8 * time.Second

	for i := 0; i < 3; i++ {
		result, err := client.Submit(replica.Op{
			Type: replica.OpWrite, Key: "tcp", Value: fmt.Sprintf("v%d", i),
		})
		if err != nil {
			t.Fatalf("op %d over tcp: %v", i, err)
		}
		if result != fmt.Sprintf("v%d", i) {
			t.Fatalf("result = %q", result)
		}
	}
}

// TestMessageEncodingRoundTrips checks that every protocol message survives
// the wire format and that the UI-certified payload is stable across
// marshal/unmarshal (a mismatch would break verification between peers).
func TestMessageEncodingRoundTrips(t *testing.T) {
	u, err := usig.NewHMAC("r1", clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := replica.NewSigner("c1")
	if err != nil {
		t.Fatal(err)
	}
	req := signer.Sign(replica.Op{Type: replica.OpWrite, Key: "k", Value: "v"})

	p := &prepareMsg{View: 3, Seq: 9, Request: req}
	ui, err := u.CreateUI(p.signedPayload())
	if err != nil {
		t.Fatal(err)
	}
	p.UI = ui
	raw, err := encode(typePrepare, p)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Type != typePrepare {
		t.Fatalf("type = %s", env.Type)
	}
	var decoded prepareMsg
	if err := json.Unmarshal(env.Data, &decoded); err != nil {
		t.Fatal(err)
	}
	if string(decoded.signedPayload()) != string(p.signedPayload()) {
		t.Error("signed payload changed across the wire")
	}
	v, err := usig.NewHMACVerifier(clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyUI(decoded.signedPayload(), decoded.UI); err != nil {
		t.Errorf("UI does not verify after round trip: %v", err)
	}

	// Commit round trip.
	c := &commitMsg{View: 3, Seq: 9, ReplicaID: "r1", PrepareDigest: prepareDigest(p)}
	cui, err := u.CreateUI(c.signedPayload())
	if err != nil {
		t.Fatal(err)
	}
	c.UI = cui
	rawC, err := encode(typeCommit, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawC, &env); err != nil {
		t.Fatal(err)
	}
	var decodedC commitMsg
	if err := json.Unmarshal(env.Data, &decodedC); err != nil {
		t.Fatal(err)
	}
	if decodedC.PrepareDigest != c.PrepareDigest {
		t.Error("prepare digest corrupted")
	}
	if err := v.VerifyUI(decodedC.signedPayload(), decodedC.UI); err != nil {
		t.Errorf("commit UI does not verify: %v", err)
	}
}
