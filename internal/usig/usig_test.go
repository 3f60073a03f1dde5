package usig

import (
	"sync"
	"testing"
	"testing/quick"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

func TestHMACCreateAndVerify(t *testing.T) {
	u, err := NewHMAC("r1", testKey)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewHMACVerifier(testKey)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("prepare:view=0,req=42")
	ui, err := u.CreateUI(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ui.Counter != 1 || ui.ReplicaID != "r1" {
		t.Errorf("ui = %+v", ui)
	}
	if err := v.VerifyUI(msg, ui); err != nil {
		t.Errorf("valid UI rejected: %v", err)
	}
}

func TestHMACRejectsTampering(t *testing.T) {
	u, _ := NewHMAC("r1", testKey)
	v, _ := NewHMACVerifier(testKey)
	msg := []byte("message")
	ui, _ := u.CreateUI(msg)

	// Tampered message.
	if err := v.VerifyUI([]byte("other"), ui); err == nil {
		t.Error("tampered message accepted")
	}
	// Tampered counter (equivocation attempt).
	bad := ui
	bad.Counter++
	if err := v.VerifyUI(msg, bad); err == nil {
		t.Error("tampered counter accepted")
	}
	// Stolen identity.
	bad = ui
	bad.ReplicaID = "r2"
	if err := v.VerifyUI(msg, bad); err == nil {
		t.Error("identity forgery accepted")
	}
	// Wrong key.
	v2, _ := NewHMACVerifier([]byte("another-secret-key-32-bytes-long"))
	if err := v2.VerifyUI(msg, ui); err == nil {
		t.Error("wrong-key verification accepted")
	}
}

func TestCountersAreSequential(t *testing.T) {
	u, _ := NewHMAC("r1", testKey)
	for i := uint64(1); i <= 100; i++ {
		ui, err := u.CreateUI([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if ui.Counter != i {
			t.Fatalf("counter %d, want %d", ui.Counter, i)
		}
	}
	if u.Counter() != 100 {
		t.Errorf("Counter() = %d", u.Counter())
	}
}

func TestCountersNeverReusedConcurrently(t *testing.T) {
	// The anti-equivocation property: concurrent CreateUI calls must yield
	// distinct counters.
	u, _ := NewHMAC("r1", testKey)
	const goroutines = 8
	const perG = 200
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ui, err := u.CreateUI([]byte("m"))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[ui.Counter] {
					t.Errorf("counter %d reused", ui.Counter)
				}
				seen[ui.Counter] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*perG {
		t.Errorf("got %d distinct counters, want %d", len(seen), goroutines*perG)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewHMAC("", testKey); err == nil {
		t.Error("empty id should fail")
	}
	if _, err := NewHMAC("r1", []byte("short")); err == nil {
		t.Error("short key should fail")
	}
	if _, err := NewHMACVerifier([]byte("x")); err == nil {
		t.Error("short verifier key should fail")
	}
}

// Property: every created UI verifies, and verification binds all three of
// (message, counter, replica).
func TestUIBindingProperty(t *testing.T) {
	u, _ := NewHMAC("r1", testKey)
	v, _ := NewHMACVerifier(testKey)
	f := func(msg []byte, flip uint8) bool {
		ui, err := u.CreateUI(msg)
		if err != nil {
			return false
		}
		if v.VerifyUI(msg, ui) != nil {
			return false
		}
		// Any single-field mutation must break verification.
		switch flip % 3 {
		case 0:
			mutated := append([]byte{0xFF}, msg...)
			return v.VerifyUI(mutated, ui) != nil
		case 1:
			bad := ui
			bad.Counter += 1 + uint64(flip)
			return v.VerifyUI(msg, bad) != nil
		default:
			bad := ui
			bad.ReplicaID = "evil"
			return v.VerifyUI(msg, bad) != nil
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestResumeHMACContinuesCounter models a replica-process restart: the
// trusted counter survives the application-domain reset, so the resumed
// USIG's first UI follows directly after the old incarnation's last one and
// still verifies. A counter that restarted from zero would be dropped by
// every peer's FIFO gate.
func TestResumeHMACContinuesCounter(t *testing.T) {
	old, _ := NewHMAC("r1", testKey)
	for i := 0; i < 5; i++ {
		if _, err := old.CreateUI([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	last := old.Counter()
	if last != 5 {
		t.Fatalf("counter = %d, want 5", last)
	}

	resumed, err := ResumeHMAC("r1", testKey, last)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counter() != last {
		t.Fatalf("resumed counter = %d, want %d", resumed.Counter(), last)
	}
	ui, err := resumed.CreateUI([]byte("after restart"))
	if err != nil {
		t.Fatal(err)
	}
	if ui.Counter != last+1 {
		t.Fatalf("first resumed UI counter = %d, want %d", ui.Counter, last+1)
	}
	v, _ := NewHMACVerifier(testKey)
	if err := v.VerifyUI([]byte("after restart"), ui); err != nil {
		t.Fatalf("resumed UI does not verify: %v", err)
	}

	if _, err := ResumeHMAC("", testKey, 1); err == nil {
		t.Error("empty id should fail")
	}
	if _, err := ResumeHMAC("r1", []byte("short"), 1); err == nil {
		t.Error("short key should fail")
	}
}
