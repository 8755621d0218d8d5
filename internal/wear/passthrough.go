package wear

// Passthrough is the identity wear-leveling scheme: logical address ==
// physical address, no remapping ever. It is the paper's baseline ("the
// Baseline (without any wear-leveling schemes)") for both the lifetime
// and the performance-impact experiments.
type Passthrough uint64

// NewPassthrough returns a no-op scheme over n lines.
func NewPassthrough(n uint64) Passthrough { return Passthrough(n) }

// Name identifies the scheme.
func (p Passthrough) Name() string { return "none" }

// LogicalLines returns n.
func (p Passthrough) LogicalLines() uint64 { return uint64(p) }

// PhysicalLines returns n.
func (p Passthrough) PhysicalLines() uint64 { return uint64(p) }

// Translate is the identity.
func (p Passthrough) Translate(la uint64) uint64 { return la }

// NoteWrite never remaps.
func (p Passthrough) NoteWrite(la uint64, m Mover) uint64 { return p.Advance(la, 1, m) }

// Epoch implements FastForwarder: the identity never remaps, so every
// write is movement-free.
func (p Passthrough) Epoch(la uint64) (pa, k uint64) { return la, ^uint64(0) }

// Advance implements FastForwarder: there are no counters to advance.
func (p Passthrough) Advance(la, k uint64, m Mover) uint64 { return 0 }
