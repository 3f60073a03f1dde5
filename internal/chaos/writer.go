package chaos

import "io"

// WrapCheckpointSink decorates the checkpoint writer's record sink with
// the plan's disk faults. The checkpoint pipeline issues exactly one Write
// per record line (the writer builds the full line, newline included, in
// one buffer), so the shim's ordinal counter advances one record at a
// time:
//
//   - the TearAt-th record is torn: only its first half reaches the file
//     while the writer is told the whole line landed, so the half-line is
//     glued onto the next record — the on-disk shape of a power cut;
//   - every CorruptEvery-th record has one mid-line byte flipped, the
//     shape of silent media corruption — valid-looking JSON with a wrong
//     value, which only the per-record CRC can catch.
//
// A nil plan (or a profile with no disk faults) returns w unchanged.
func (p *Plan) WrapCheckpointSink(w io.Writer) io.Writer {
	if p == nil || (p.Profile.CorruptEvery <= 0 && p.Profile.TearAt <= 0) {
		return w
	}
	return &faultyWriter{p: p, w: w}
}

type faultyWriter struct {
	p *Plan
	w io.Writer
}

func (f *faultyWriter) Write(b []byte) (int, error) {
	p, prof := f.p, &f.p.Profile
	n := p.ckptN.Add(1) // 1-based record ordinal
	if prof.TearAt > 0 && n == uint64(prof.TearAt) && len(b) > 1 {
		p.c.ckptTorn.Add(1)
		if _, err := f.w.Write(b[:len(b)/2]); err != nil {
			return 0, err
		}
		return len(b), nil // lie about the torn half, like a cut power rail
	}
	if prof.CorruptEvery > 0 && n%uint64(prof.CorruptEvery) == 0 && len(b) > 2 {
		p.c.ckptCorrupt.Add(1)
		cp := make([]byte, len(b))
		copy(cp, b)
		cp[len(cp)/2] ^= 0x02
		return f.w.Write(cp)
	}
	return f.w.Write(b)
}
