package replica

import (
	"bytes"
	"testing"
)

// FuzzStateSnapshot feeds arbitrary bytes to KVStore.Restore, the decoder
// of the snapshots a replica takes from its peers during state transfer. A
// snapshot that restores must re-snapshot to bytes that restore to the
// same snapshot bytes and the same Digest.
func FuzzStateSnapshot(f *testing.F) {
	kv := NewKVStore()
	for i, v := range []string{"1", "", "ünïcode", "\x00\xff"} {
		if _, err := kv.Apply(&Request{ClientID: "c", Seq: uint64(i + 1), Op: Op{Type: OpWrite, Key: v, Value: v}}); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := kv.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte(`{"data":null,"lastSeen":null,"applied":0}`))
	f.Add([]byte(`{"data":{"k":"v","k":"w"},"lastSeen":{"c":18446744073709551615}}`))
	f.Add([]byte(`{"data":{"\ud800":"x"}}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		first := NewKVStore()
		if first.Restore(data) != nil {
			return
		}
		snap, err := first.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a restored store: %v", err)
		}
		second := NewKVStore()
		if err := second.Restore(snap); err != nil {
			t.Fatalf("a store's own snapshot does not restore: %v\n%s", err, snap)
		}
		again, err := second.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, snap) {
			t.Fatalf("re-snapshot differs:\n%s\n%s", snap, again)
		}
		if first.Digest() != second.Digest() {
			t.Fatalf("digest changed across a snapshot round trip of %s", snap)
		}
	})
}
