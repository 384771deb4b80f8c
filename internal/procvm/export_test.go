package procvm

// Emit is the builder's own writer, open to the external golden tests for
// the opcodes the builder has no method for.
func (b *Builder) Emit(op OpCode, operands ...int) *Builder { return b.emit(op, operands...) }

// SlabLen is how many floats s keeps for the vectors its runs carve.
func (s *Scratch) SlabLen() int { return len(s.slab) }
