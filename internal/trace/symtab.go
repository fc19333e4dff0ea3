package trace

import (
	"fmt"

	"repro/internal/memmap"
)

// FuncID identifies a registered simulated function. The zero FuncID is the
// "unknown" function in category CatUnknown.
type FuncID uint16

// Func describes one simulated function: its name (mimicking the symbols
// the paper recovered with mdb/nm), its Table-2 category, and the code
// region its instruction fetches touch.
type Func struct {
	ID       FuncID
	Name     string
	Category Category
	Code     memmap.Region // instruction footprint; may be empty (Size 0)
}

// SymbolTable registers simulated functions and allocates their code
// footprints, playing the role of the paper's symbol index obtained from
// the Solaris kernel debugger and nm.
type SymbolTable struct {
	funcs  []Func
	byName map[string]FuncID
	as     *memmap.AddressSpace
}

// NewSymbolTable returns a table that allocates code regions from as.
// FuncID 0 is pre-registered as "<unknown>" with no code footprint.
func NewSymbolTable(as *memmap.AddressSpace) *SymbolTable {
	st := &SymbolTable{byName: make(map[string]FuncID), as: as}
	st.funcs = append(st.funcs, Func{ID: 0, Name: "<unknown>", Category: CatUnknown})
	st.byName["<unknown>"] = 0
	return st
}

// NewStaticSymbolTable rebuilds a lookup-only table from previously
// exported descriptors (e.g. a wire-format trailer): Func, CategoryOf, and
// Lookup work as on the original table, but the table owns no address
// space, so Register must not be called. funcs is indexed by FuncID; an
// empty slice yields a table holding only "<unknown>".
func NewStaticSymbolTable(funcs []Func) *SymbolTable {
	if len(funcs) == 0 {
		return NewSymbolTable(nil)
	}
	st := &SymbolTable{byName: make(map[string]FuncID, len(funcs))}
	st.funcs = append(st.funcs, funcs...)
	for i := range st.funcs {
		st.funcs[i].ID = FuncID(i)
		st.byName[st.funcs[i].Name] = FuncID(i)
	}
	return st
}

// Funcs returns a copy of every registered descriptor, indexed by FuncID
// (so Funcs()[0] is "<unknown>"). It is the serialization companion of
// NewStaticSymbolTable.
func (st *SymbolTable) Funcs() []Func {
	out := make([]Func, len(st.funcs))
	copy(out, st.funcs)
	return out
}

// Register adds a function with the given instruction footprint in bytes
// (rounded up to whole blocks; zero means no code region, e.g. for
// pseudo-functions). Registering the same name twice panics: the workload
// models build their symbol tables once, at construction.
func (st *SymbolTable) Register(name string, cat Category, codeBytes uint64) FuncID {
	if _, dup := st.byName[name]; dup {
		panic(fmt.Sprintf("trace: duplicate function %q", name))
	}
	id := FuncID(len(st.funcs))
	var code memmap.Region
	if codeBytes > 0 {
		code = st.as.Alloc("text:"+name, codeBytes)
	}
	st.funcs = append(st.funcs, Func{ID: id, Name: name, Category: cat, Code: code})
	st.byName[name] = id
	return id
}

// Lookup returns the FuncID for name, or (0, false) if not registered.
func (st *SymbolTable) Lookup(name string) (FuncID, bool) {
	id, ok := st.byName[name]
	return id, ok
}

// Func returns the descriptor for id. Unknown ids map to FuncID 0.
func (st *SymbolTable) Func(id FuncID) Func {
	if int(id) >= len(st.funcs) {
		return st.funcs[0]
	}
	return st.funcs[id]
}

// CategoryOf returns the category of id.
func (st *SymbolTable) CategoryOf(id FuncID) Category { return st.Func(id).Category }

// Len returns the number of registered functions, including "<unknown>".
func (st *SymbolTable) Len() int { return len(st.funcs) }
