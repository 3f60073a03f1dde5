package attacker

import (
	"math/rand"
	"testing"
)

func TestAllTenCampaignsDefined(t *testing.T) {
	if len(campaigns) != 10 {
		t.Fatalf("%d campaigns, want 10 (Table 6)", len(campaigns))
	}
	for id := 1; id <= 10; id++ {
		c, err := CampaignFor(id)
		if err != nil {
			t.Fatalf("campaign %d: %v", id, err)
		}
		if len(c.Steps) < 2 {
			t.Errorf("campaign %d has %d steps, want >= 2 (scan + exploit)", id, len(c.Steps))
		}
		// Every campaign starts with reconnaissance (Table 6).
		first := c.Steps[0].Name
		if first != "TCP SYN scan" && first != "ICMP scan" {
			t.Errorf("campaign %d starts with %q, want a scan", id, first)
		}
	}
	if _, err := CampaignFor(11); err == nil {
		t.Error("campaign 11 should not exist")
	}
	if _, err := CampaignFor(0); err == nil {
		t.Error("campaign 0 should not exist")
	}
}

func TestCampaignsWithWeakPasswordsBruteForce(t *testing.T) {
	// Replicas 9 and 10 chain SSH brute force before the CVE (Table 6).
	for _, id := range []int{9, 10} {
		c, _ := CampaignFor(id)
		if len(c.Steps) != 3 {
			t.Errorf("campaign %d has %d steps, want 3", id, len(c.Steps))
		}
		if c.Steps[1].Name != "SSH brute force" {
			t.Errorf("campaign %d step 2 = %q", id, c.Steps[1].Name)
		}
	}
}

func TestIntrusionLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var intr Intrusion
	if err := intr.Begin(4); err != nil {
		t.Fatal(err)
	}
	if intr.Done() {
		t.Fatal("fresh intrusion already done")
	}
	if s := intr.campaign.Steps[intr.step]; s.Name != "ICMP scan" {
		t.Fatalf("current step = %+v", s)
	}
	totalBoost := 0
	steps := 0
	for !intr.Done() {
		totalBoost += intr.Advance(rng)
		steps++
		if steps > 10 {
			t.Fatal("campaign did not terminate")
		}
	}
	if steps != 2 {
		t.Errorf("campaign 4 took %d steps, want 2", steps)
	}
	if totalBoost <= 0 {
		t.Error("campaign produced no alert boost")
	}
	if intr.Behaviour < Participate || intr.Behaviour > SendRandom {
		t.Errorf("behaviour = %v not sampled", intr.Behaviour)
	}
	if intr.step != len(intr.campaign.Steps) {
		t.Error("done intrusion still has a current step")
	}
	if intr.Advance(rng) != 0 {
		t.Error("advancing a done intrusion should be a no-op")
	}
}

func TestStartUnknownReplica(t *testing.T) {
	var intr Intrusion
	if err := intr.Begin(42); err == nil {
		t.Error("unknown replica should fail")
	}
}

func TestSampleBehaviourCoversAllThree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := map[Behaviour]int{}
	for i := 0; i < 3000; i++ {
		seen[SampleBehaviour(rng)]++
	}
	for _, b := range []Behaviour{Participate, StaySilent, SendRandom} {
		frac := float64(seen[b]) / 3000
		if frac < 0.25 || frac > 0.42 {
			t.Errorf("behaviour %v frequency %v, want ~1/3", b, frac)
		}
	}
	if Participate.String() != "participate" || Behaviour(9).String() == "" {
		t.Error("behaviour strings wrong")
	}
}
