package db

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"maybms/internal/lineage"
	"maybms/internal/schema"
	"maybms/internal/storage"
	"maybms/internal/types"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// The persistence format is a gob-encoded snapshot of the catalog,
// rows, conditions, and world-set variable table. Recovery is simply
// loading the snapshot: as the paper observes, a purely relational
// representation makes recovery unremarkable.

type valDump struct {
	K uint8
	I int64
	F float64
	S string
	B bool
	// NegZero marks a FLOAT -0. gob leaves out a float field that
	// equals zero, so F alone would load -0 as +0; every other snapshot
	// is unchanged, since gob leaves out a false bool too.
	NegZero bool
}

type litDump struct {
	Var int32
	Val int
}

type rowDump struct {
	Vals []valDump
	Cond []litDump
	Dead bool
}

type colDump struct {
	Rel  string
	Name string
	Kind uint8
}

type tableDump struct {
	Name string
	Cols []colDump
	Rows []rowDump
}

type dbDump struct {
	Version int
	Tables  []tableDump
	Domains [][]float64
}

func dumpValue(v types.Value) valDump {
	switch v.Kind() {
	case types.KindInt:
		return valDump{K: 1, I: v.Int()}
	case types.KindFloat:
		f := v.Float()
		return valDump{K: 2, F: f, NegZero: f == 0 && math.Signbit(f)}
	case types.KindText:
		return valDump{K: 3, S: v.Text()}
	case types.KindBool:
		return valDump{K: 4, B: v.Bool()}
	default:
		return valDump{K: 0}
	}
}

func loadValue(d valDump) types.Value {
	switch d.K {
	case 1:
		return types.NewInt(d.I)
	case 2:
		if d.NegZero {
			return types.NewFloat(math.Copysign(0, -1))
		}
		return types.NewFloat(d.F)
	case 3:
		return types.NewText(d.S)
	case 4:
		return types.NewBool(d.B)
	default:
		return types.Null()
	}
}

// Save writes a snapshot of the database to w.
func (d *Database) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hasActiveTxns() {
		return fmt.Errorf("db: cannot snapshot while transactions are active")
	}
	dump := dbDump{Version: 1, Domains: d.store.Domains()}
	for _, name := range d.tableNamesLocked() {
		t := d.tables[name]
		td := tableDump{Name: name}
		for _, c := range t.Schema().Cols {
			td.Cols = append(td.Cols, colDump{Rel: c.Rel, Name: c.Name, Kind: uint8(c.Kind)})
		}
		rows, dead := t.Rows()
		for i, r := range rows {
			rd := rowDump{Dead: dead[i]}
			for _, v := range r.Data {
				rd.Vals = append(rd.Vals, dumpValue(v))
			}
			for _, l := range r.Cond {
				rd.Cond = append(rd.Cond, litDump{Var: int32(l.Var), Val: l.Val})
			}
			td.Rows = append(td.Rows, rd)
		}
		dump.Tables = append(dump.Tables, td)
	}
	return gob.NewEncoder(w).Encode(&dump)
}

func (d *Database) tableNamesLocked() []string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	// Deterministic output.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// Load replaces the database contents with a snapshot read from r.
func (d *Database) Load(r io.Reader) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hasActiveTxns() {
		return fmt.Errorf("db: cannot load while transactions are active")
	}
	if d.durable != nil {
		return fmt.Errorf("db: cannot load a snapshot into a durable database; open a fresh data directory instead")
	}
	var dump dbDump
	if err := gob.NewDecoder(r).Decode(&dump); err != nil {
		return fmt.Errorf("db: load: %v", err)
	}
	if dump.Version != 1 {
		return fmt.Errorf("db: unsupported snapshot version %d", dump.Version)
	}
	store := ws.NewStore()
	store.Restore(dump.Domains)
	tables := map[string]*storage.Table{}
	for _, td := range dump.Tables {
		cols := make([]schema.Column, len(td.Cols))
		for i, c := range td.Cols {
			cols[i] = schema.Column{Rel: c.Rel, Name: c.Name, Kind: types.Kind(c.Kind)}
		}
		t := storage.NewTable(td.Name, schema.New(cols...))
		rows := make([]urel.Tuple, len(td.Rows))
		dead := make([]bool, len(td.Rows))
		for i, rd := range td.Rows {
			data := make(schema.Tuple, len(rd.Vals))
			for j, vd := range rd.Vals {
				data[j] = loadValue(vd)
			}
			lits := make([]lineage.Lit, len(rd.Cond))
			for j, ld := range rd.Cond {
				lits[j] = lineage.Lit{Var: ws.VarID(ld.Var), Val: ld.Val}
			}
			cond, ok := lineage.NewCond(lits...)
			if !ok {
				return fmt.Errorf("db: load: inconsistent condition in table %s row %d", td.Name, i)
			}
			rows[i] = urel.Tuple{Data: data, Cond: cond}
			dead[i] = rd.Dead
		}
		if err := t.LoadRows(rows, dead); err != nil {
			return fmt.Errorf("db: load: %v", err)
		}
		tables[td.Name] = t
	}
	d.store.Restore(dump.Domains)
	d.tables = tables
	// Loaded state replaces every table and the world-set store:
	// nothing planned before is trustworthy, and the commit log
	// describes state that no longer exists.
	d.txnLog = nil
	d.bumpPlanGen()
	return nil
}

// SaveFile snapshots the database to a file. The write is atomic:
// the snapshot goes to a temp file in the same directory, is synced,
// and then renamed over path, so a crash (or encoding error) mid-save
// can never leave a torn half-written snapshot as the only copy.
func (d *Database) SaveFile(path string) error {
	return saveAtomic(path, d.Save)
}

// saveAtomic writes via fn into a temp file next to path, fsyncs it,
// and renames it into place — the POSIX recipe for "either the old
// file or the complete new file, never a torn mix". On any error the
// temp file is removed and path is left untouched.
func saveAtomic(path string, fn func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := fn(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = "" // committed; nothing to clean up
	// Make the rename itself durable.
	if dh, err := os.Open(dir); err == nil {
		dh.Sync()
		dh.Close()
	}
	return nil
}

// LoadFile restores the database from a file snapshot.
func (d *Database) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return d.Load(f)
}
