// Package catalog defines the relational engine's schema objects and the
// binary row codec. A schema is a list of typed columns with exactly one
// INT primary key column, whose value doubles as the tuple id the delay
// defense tracks.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Type enumerates column types.
type Type uint8

// Supported column types.
const (
	Int Type = iota + 1
	Float
	Text
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Text:
		return "TEXT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts a SQL type name to a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return Int, nil
	case "FLOAT", "REAL", "DOUBLE":
		return Float, nil
	case "TEXT", "VARCHAR", "STRING":
		return Text, nil
	default:
		return 0, fmt.Errorf("catalog: unknown type %q", s)
	}
}

// Column is one attribute of a relation.
type Column struct {
	Name string `json:"name"`
	Type Type   `json:"type"`
}

// IndexDef describes a secondary index over one column.
type IndexDef struct {
	Name   string `json:"name"`
	Column string `json:"column"`
}

// Schema describes a relation.
type Schema struct {
	Table   string   `json:"table"`
	Columns []Column `json:"columns"`
	// Key is the index of the primary key column; it must be an Int
	// column. Primary key values identify tuples to the delay defense.
	Key int `json:"key"`
	// Indexes are the secondary indexes defined on this relation.
	Indexes []IndexDef `json:"indexes,omitempty"`
	// Layout is how the table's records spell a TEXT cell's length (see
	// EncodeRow): the stamp CREATE TABLE writes. The zero value marks a
	// table created before there was one, which the engine refuses.
	Layout Layout `json:"layout,omitempty"`
}

// Layout is a table's record layout stamp.
type Layout uint8

// LayoutVerbatim is the one record layout: a TEXT cell's uvarint is its
// length shifted left by one, the low bit its verbatim bit.
const LayoutVerbatim Layout = 1

// Validate checks structural invariants.
func (s Schema) Validate() error {
	if s.Table == "" {
		return errors.New("catalog: empty table name")
	}
	if len(s.Columns) == 0 {
		return errors.New("catalog: no columns")
	}
	if s.Key < 0 || s.Key >= len(s.Columns) {
		return fmt.Errorf("catalog: key index %d out of range", s.Key)
	}
	if s.Columns[s.Key].Type != Int {
		return errors.New("catalog: primary key must be an INT column")
	}
	if s.Layout > LayoutVerbatim {
		return fmt.Errorf("catalog: unknown record layout %d", s.Layout)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return errors.New("catalog: empty column name")
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return fmt.Errorf("catalog: duplicate column %q", c.Name)
		}
		seen[lower] = true
		switch c.Type {
		case Int, Float, Text:
		default:
			return fmt.Errorf("catalog: column %q has invalid type", c.Name)
		}
	}
	idxNames := make(map[string]bool, len(s.Indexes))
	for _, idx := range s.Indexes {
		if idx.Name == "" {
			return errors.New("catalog: empty index name")
		}
		lower := strings.ToLower(idx.Name)
		if idxNames[lower] {
			return fmt.Errorf("catalog: duplicate index %q", idx.Name)
		}
		idxNames[lower] = true
		if s.ColumnIndex(idx.Column) < 0 {
			return fmt.Errorf("catalog: index %q references unknown column %q", idx.Name, idx.Column)
		}
	}
	return nil
}

// ColumnIndex returns the index of the named column (case-insensitive),
// or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Catalog maps table names to schemas and persists them as JSON in a meta
// file alongside the data files. It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	path    string
	schemas map[string]Schema
}

// Open loads (or initializes) the catalog stored in dir/catalog.json.
func Open(dir string) (*Catalog, error) {
	c := &Catalog{
		path:    filepath.Join(dir, "catalog.json"),
		schemas: make(map[string]Schema),
	}
	data, err := os.ReadFile(c.path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", c.path, err)
	}
	var schemas []Schema
	if err := json.Unmarshal(data, &schemas); err != nil {
		return nil, fmt.Errorf("catalog: parsing %s: %w", c.path, err)
	}
	for _, s := range schemas {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("catalog: stored schema %q: %w", s.Table, err)
		}
		c.schemas[strings.ToLower(s.Table)] = s
	}
	return c, nil
}

// Create registers a new table schema and persists the catalog.
func (c *Catalog) Create(s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(s.Table)
	if _, exists := c.schemas[key]; exists {
		return fmt.Errorf("catalog: table %q already exists", s.Table)
	}
	c.schemas[key] = s
	if err := c.saveLocked(); err != nil {
		delete(c.schemas, key)
		return err
	}
	return nil
}

// Drop removes a table schema and persists the catalog.
func (c *Catalog) Drop(table string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(table)
	old, exists := c.schemas[key]
	if !exists {
		return fmt.Errorf("catalog: table %q does not exist", table)
	}
	delete(c.schemas, key)
	if err := c.saveLocked(); err != nil {
		c.schemas[key] = old
		return err
	}
	return nil
}

// UpdateSchema replaces a table's stored schema (used when indexes are
// added or dropped) and persists the catalog.
func (c *Catalog) UpdateSchema(s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(s.Table)
	old, exists := c.schemas[key]
	if !exists {
		return fmt.Errorf("catalog: table %q does not exist", s.Table)
	}
	c.schemas[key] = s
	if err := c.saveLocked(); err != nil {
		c.schemas[key] = old
		return err
	}
	return nil
}

// Get returns the schema for table.
func (c *Catalog) Get(table string) (Schema, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.schemas[strings.ToLower(table)]
	if !ok {
		return Schema{}, fmt.Errorf("catalog: table %q does not exist", table)
	}
	return s, nil
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.schemas))
	for _, s := range c.schemas {
		out = append(out, s.Table)
	}
	sort.Strings(out)
	return out
}

func (c *Catalog) saveLocked() error {
	schemas := make([]Schema, 0, len(c.schemas))
	for _, s := range c.schemas {
		schemas = append(schemas, s)
	}
	sort.Slice(schemas, func(i, j int) bool { return schemas[i].Table < schemas[j].Table })
	data, err := json.MarshalIndent(schemas, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: encoding: %w", err)
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("catalog: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("catalog: committing %s: %w", c.path, err)
	}
	return nil
}
