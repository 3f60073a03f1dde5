// Package attacker implements the intrusion campaigns of Table 6: each
// replica type is compromised through a fixed sequence of steps
// (reconnaissance scan, then brute force or CVE exploit), after which the
// attacker controls the replica and chooses between participating in
// consensus, staying silent, and sending random messages (§VIII-A).
package attacker

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrUnknownReplica is returned for replica types outside Table 4/6.
var ErrUnknownReplica = errors.New("attacker: unknown replica type")

// Step is one intrusion action with an IDS footprint.
type Step struct {
	// Name identifies the action (Table 6).
	Name string
	// AlertBoost is the extra priority-weighted alert mass this step
	// produces while in progress (added to the container's baseline).
	AlertBoost int
}

// Campaign is the ordered intrusion sequence against one replica type.
type Campaign struct {
	// ReplicaType is the Table 4 container ID (1..10).
	ReplicaType int
	// Steps is the attack sequence (Table 6).
	Steps []Step
}

// campaigns transcribes Table 6.
var campaigns = map[int]Campaign{
	1:  {1, []Step{{"TCP SYN scan", 6}, {"FTP brute force", 12}}},
	2:  {2, []Step{{"TCP SYN scan", 6}, {"SSH brute force", 12}}},
	3:  {3, []Step{{"TCP SYN scan", 6}, {"TELNET brute force", 12}}},
	4:  {4, []Step{{"ICMP scan", 4}, {"exploit of CVE-2017-7494", 9}}},
	5:  {5, []Step{{"ICMP scan", 4}, {"exploit of CVE-2014-6271", 9}}},
	6:  {6, []Step{{"ICMP scan", 4}, {"exploit of CWE-89 on DVWA", 8}}},
	7:  {7, []Step{{"ICMP scan", 4}, {"exploit of CVE-2015-3306", 9}}},
	8:  {8, []Step{{"ICMP scan", 4}, {"exploit of CVE-2016-10033", 9}}},
	9:  {9, []Step{{"ICMP scan", 4}, {"SSH brute force", 12}, {"exploit of CVE-2010-0426", 7}}},
	10: {10, []Step{{"ICMP scan", 4}, {"SSH brute force", 12}, {"exploit of CVE-2015-5602", 7}}},
}

// CampaignFor returns the Table 6 campaign for a replica type.
func CampaignFor(replicaType int) (Campaign, error) {
	c, ok := campaigns[replicaType]
	if !ok {
		return Campaign{}, fmt.Errorf("%w: %d", ErrUnknownReplica, replicaType)
	}
	return c, nil
}

// Behaviour is the post-compromise strategy of §VIII-A.
type Behaviour int

// Post-compromise behaviours: a) participate in the consensus protocol,
// b) not participate, c) participate with randomly selected messages.
const (
	Participate Behaviour = iota + 1
	StaySilent
	SendRandom
)

// String names the behaviour.
func (b Behaviour) String() string {
	switch b {
	case Participate:
		return "participate"
	case StaySilent:
		return "silent"
	case SendRandom:
		return "random-messages"
	default:
		return fmt.Sprintf("Behaviour(%d)", int(b))
	}
}

// SampleBehaviour picks uniformly among the three behaviours (§VIII-A:
// "the attacker randomly chooses").
func SampleBehaviour(rng *rand.Rand) Behaviour {
	return Behaviour(1 + rng.Intn(3))
}

// Intrusion tracks one in-progress campaign against a node.
type Intrusion struct {
	campaign Campaign
	step     int
	// Behaviour is set once the campaign completes.
	Behaviour Behaviour
}

// Begin (re)starts a campaign against the given replica type in place,
// reusing the receiver's storage. Emulation runners embed an Intrusion per
// node and recycle nodes across scenarios, so intrusion tracking never
// allocates on the simulation hot path.
func (i *Intrusion) Begin(replicaType int) error {
	c, err := CampaignFor(replicaType)
	if err != nil {
		return err
	}
	*i = Intrusion{campaign: c}
	return nil
}

// Done reports whether the replica is fully compromised.
func (i *Intrusion) Done() bool { return i.step >= len(i.campaign.Steps) }

// Advance progresses the campaign by one time step; when the final step
// completes the post-compromise behaviour is sampled. It returns the alert
// boost generated during this step.
func (i *Intrusion) Advance(rng *rand.Rand) int {
	if i.Done() {
		return 0
	}
	step := i.campaign.Steps[i.step]
	i.step++
	if i.Done() {
		i.Behaviour = SampleBehaviour(rng)
	}
	return step.AlertBoost
}
