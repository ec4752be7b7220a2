// Package measure implements the throughput measurement methodology of
// paper §4.2: instruction forms are instantiated with concrete operands
// by a register allocator that avoids data dependencies, the sequence is
// unrolled into a loop body of ~50 instructions, and the loop is run to a
// steady state whose cycles-per-iteration give the throughput
// (Definition 1).
//
// In the paper, the loop is emitted as C-with-inline-assembly, compiled,
// and timed with gettimeofday on real hardware. Here the loop runs on the
// cycle-level simulator of internal/machine, with a configurable noise
// model standing in for clock jitter; the C emitter is retained (EmitC)
// to document and test the code-generation scheme.
package measure

import (
	"fmt"

	"pmevo/internal/isa"
	"pmevo/internal/machine"
)

// Register ID space: each register class gets a disjoint ID range so the
// simulator's dependency tracking can mix classes freely.
const (
	gprBase   = 0
	vecBase   = 1000
	fprBase   = 2000
	memBase   = 3000 // pseudo-registers modeling distinct memory offsets
	basePtrID = 4000 // the memory base pointer (never written)
)

// PoolSizes configures how many architectural registers the allocator
// may use per class. Using many registers maximizes dependency distance
// (§4.2: "Using as many different registers as available").
type PoolSizes struct {
	GPR int
	Vec int
	FPR int
	// MemOffsets is the number of distinct constant offsets used to
	// instantiate memory operands without aliasing.
	MemOffsets int
}

// DefaultPoolSizes returns realistic pool sizes for the given ISA:
// x86-64 has 16 GPRs and 16 vector registers (minus stack/base pointers
// and scratch), ARMv8-A has 31 GPRs and 32 vector registers.
func DefaultPoolSizes(a *isa.ISA) PoolSizes {
	if a.Name == "ARMv8-A" {
		return PoolSizes{GPR: 26, Vec: 30, FPR: 30, MemOffsets: 8}
	}
	return PoolSizes{GPR: 12, Vec: 14, FPR: 14, MemOffsets: 8}
}

// Operand is a concrete operand produced by the allocator.
type Operand struct {
	// Kind mirrors the form's operand kind.
	Kind isa.OperandKind
	// Reg is the architectural register index within its class pool
	// (for KindReg), or the base pointer for KindMem.
	Reg int
	// Class is the register class of Reg.
	Class isa.RegClass
	// Offset is the memory offset index (for KindMem).
	Offset int
	// Imm is the immediate value (for KindImm).
	Imm int64
}

// Inst is an instruction instance with concrete operands.
type Inst struct {
	Form     *isa.Form
	Operands []Operand
}

// Allocator assigns registers to instruction form operands while
// avoiding read-after-write dependencies (§4.2):
//
//   - read operands get the least recently written register, so any
//     pending write to it lies as far in the past as possible;
//   - written operands get the most recently read register, whose value
//     has already been consumed and which readers will now avoid.
//
// Memory operands use a dedicated base pointer plus rotating constant
// offsets so consecutive memory accesses touch distinct addresses.
type Allocator struct {
	sizes PoolSizes
	// pools is indexed by register class; ClassNone's pool is empty, so
	// a register operand of that class is rejected like an unknown one.
	pools [numRegClasses]regPool
	clock int
	mem   int // next memory offset (rotating)
}

// numRegClasses bounds the isa.RegClass values that own a register pool.
const numRegClasses = int(isa.ClassFPR) + 1

type regPool struct {
	lastRead  []int
	lastWrite []int
}

// NewAllocator creates an allocator with the given pool sizes.
func NewAllocator(sizes PoolSizes) (*Allocator, error) {
	if sizes.GPR < 2 || sizes.Vec < 2 || sizes.FPR < 2 {
		return nil, fmt.Errorf("measure: register pools too small: %+v", sizes)
	}
	if sizes.MemOffsets < 1 {
		return nil, fmt.Errorf("measure: need at least one memory offset")
	}
	a := &Allocator{sizes: sizes}
	// One backing array holds every pool's read and write clocks.
	n := [numRegClasses]int{isa.ClassGPR: sizes.GPR, isa.ClassVec: sizes.Vec, isa.ClassFPR: sizes.FPR}
	clocks := make([]int, 2*(sizes.GPR+sizes.Vec+sizes.FPR))
	for i := range clocks {
		clocks[i] = -1
	}
	for c, k := range n {
		a.pools[c] = regPool{lastRead: clocks[:k:k], lastWrite: clocks[k : 2*k : 2*k]}
		clocks = clocks[2*k:]
	}
	return a, nil
}

// usedReg is a register already assigned to an operand of the
// instruction being instantiated.
type usedReg struct {
	class isa.RegClass
	reg   int
}

// taken reports whether register r of class c is in used.
func taken(used []usedReg, c isa.RegClass, r int) bool {
	for _, u := range used {
		if u.reg == r && u.class == c {
			return true
		}
	}
	return false
}

// pickRead selects a register for a read (or read-write) operand:
// the least recently written register, ties broken by the least recently
// read one, excluding registers already used by this instruction.
func (p *regPool) pickRead(c isa.RegClass, used []usedReg) int {
	best := -1
	for r := range p.lastRead {
		if taken(used, c, r) {
			continue
		}
		if best < 0 ||
			p.lastWrite[r] < p.lastWrite[best] ||
			(p.lastWrite[r] == p.lastWrite[best] && p.lastRead[r] < p.lastRead[best]) {
			best = r
		}
	}
	return best
}

// pickWrite selects a register for a write-only operand: the most
// recently read register, ties broken by the least recently written one.
func (p *regPool) pickWrite(c isa.RegClass, used []usedReg) int {
	best := -1
	for r := range p.lastRead {
		if taken(used, c, r) {
			continue
		}
		if best < 0 ||
			p.lastRead[r] > p.lastRead[best] ||
			(p.lastRead[r] == p.lastRead[best] && p.lastWrite[r] < p.lastWrite[best]) {
			best = r
		}
	}
	return best
}

// Instantiate assigns concrete operands to one instruction form.
func (a *Allocator) Instantiate(f *isa.Form) (Inst, error) {
	return a.instantiate(f, make([]Operand, len(f.Operands)))
}

// instantiate is Instantiate writing the operands into ops, which must
// have len(f.Operands) elements.
func (a *Allocator) instantiate(f *isa.Form, ops []Operand) (Inst, error) {
	a.clock++
	now := a.clock
	var buf [8]usedReg
	used := buf[:0]
	for i, op := range f.Operands {
		switch op.Kind {
		case isa.KindImm:
			ops[i] = Operand{Kind: isa.KindImm, Imm: int64(1 + i)}
		case isa.KindMem:
			off := a.mem
			a.mem = (a.mem + 1) % a.sizes.MemOffsets
			ops[i] = Operand{
				Kind:   isa.KindMem,
				Class:  isa.ClassGPR,
				Reg:    0, // the dedicated base pointer
				Offset: off,
			}
		case isa.KindReg:
			if op.Class <= isa.ClassNone || int(op.Class) >= numRegClasses {
				return Inst{}, fmt.Errorf("measure: no pool for register class %v", op.Class)
			}
			pool := &a.pools[op.Class]
			var r int
			if op.Read {
				r = pool.pickRead(op.Class, used)
			} else {
				r = pool.pickWrite(op.Class, used)
			}
			if r < 0 {
				return Inst{}, fmt.Errorf("measure: register pool %v exhausted for %s",
					op.Class, f.Name())
			}
			used = append(used, usedReg{op.Class, r})
			if op.Read {
				pool.lastRead[r] = now
			}
			if op.Write {
				pool.lastWrite[r] = now
			}
			ops[i] = Operand{Kind: isa.KindReg, Class: op.Class, Reg: r}
		}
	}
	return Inst{Form: f, Operands: ops}, nil
}

// InstantiateSequence allocates operands for a whole instruction
// sequence in order.
func (a *Allocator) InstantiateSequence(seq []*isa.Form) ([]Inst, error) {
	n := 0
	for _, f := range seq {
		n += len(f.Operands)
	}
	out := make([]Inst, len(seq))
	if err := a.instantiateInto(out, seq, make([]Operand, n)); err != nil {
		return nil, err
	}
	return out, nil
}

// instantiateInto allocates operands for seq in order into out (one
// instruction per form), cutting every operand list from ops, which must
// hold the sequence's total operand count.
func (a *Allocator) instantiateInto(out []Inst, seq []*isa.Form, ops []Operand) error {
	for i, f := range seq {
		k := len(f.Operands)
		inst, err := a.instantiate(f, ops[:k:k])
		if err != nil {
			return err
		}
		out[i] = inst
		ops = ops[k:]
	}
	return nil
}

// regID maps a concrete register to its simulator dependency-tracking ID.
func regID(class isa.RegClass, reg int) int {
	switch class {
	case isa.ClassVec:
		return vecBase + reg
	case isa.ClassFPR:
		return fprBase + reg
	default:
		return gprBase + reg
	}
}

// lowerCounts returns the lengths of the simulator read and write lists
// ToMachineInst produces for in.
func lowerCounts(in *Inst) (reads, writes int) {
	for i, op := range in.Operands {
		spec := in.Form.Operands[i]
		switch op.Kind {
		case isa.KindMem:
			reads++ // the base pointer
			fallthrough
		case isa.KindReg:
			if spec.Read {
				reads++
			}
			if spec.Write {
				writes++
			}
		}
	}
	return reads, writes
}

// lower is ToMachineInst with the read and write lists cut from ids,
// which must hold at least lowerCounts(in) elements; it returns the rest.
func lower(in *Inst, ids []int) (machine.Inst, []int) {
	mi := machine.Inst{Spec: in.Form.ID}
	nr, nw := lowerCounts(in)
	if nr > 0 {
		mi.Reads = ids[:0:nr]
	}
	if nw > 0 {
		mi.Writes = ids[nr : nr : nr+nw]
	}
	for i, op := range in.Operands {
		spec := in.Form.Operands[i]
		switch op.Kind {
		case isa.KindReg:
			id := regID(op.Class, op.Reg)
			if spec.Read {
				mi.Reads = append(mi.Reads, id)
			}
			if spec.Write {
				mi.Writes = append(mi.Writes, id)
			}
		case isa.KindMem:
			mi.Reads = append(mi.Reads, basePtrID)
			pseudo := memBase + op.Offset
			if spec.Read {
				mi.Reads = append(mi.Reads, pseudo)
			}
			if spec.Write {
				mi.Writes = append(mi.Writes, pseudo)
			}
		}
	}
	return mi, ids[nr+nw:]
}

// ToMachineInst lowers a concrete instruction to the simulator's
// representation: register reads/writes including memory pseudo-
// registers (loads read, stores write the pseudo-register of their
// offset) and the base pointer.
func ToMachineInst(in Inst) machine.Inst {
	nr, nw := lowerCounts(&in)
	mi, _ := lower(&in, make([]int, nr+nw))
	return mi
}

// ToMachineInsts lowers a sequence, cutting every read and write list
// from one backing array.
func ToMachineInsts(seq []Inst) []machine.Inst {
	n := 0
	for i := range seq {
		nr, nw := lowerCounts(&seq[i])
		n += nr + nw
	}
	ids := make([]int, n)
	out := make([]machine.Inst, len(seq))
	for i := range seq {
		out[i], ids = lower(&seq[i], ids)
	}
	return out
}
