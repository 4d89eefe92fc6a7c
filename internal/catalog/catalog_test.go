package catalog

import (
	"testing"

	"dyndesign/internal/sql"
	"dyndesign/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	)
}

func TestIndexDefName(t *testing.T) {
	d := IndexDef{Table: "t", Columns: []string{"a", "b"}}
	if d.Name() != "I(a,b)" {
		t.Errorf("Name() = %q", d.Name())
	}
	d = IndexDef{Table: "t", Columns: []string{"a"}}
	if d.Name() != "I(a)" {
		t.Errorf("Name() = %q", d.Name())
	}
}

func TestIndexDefEqual(t *testing.T) {
	a := IndexDef{Table: "t", Columns: []string{"a", "b"}}
	if !a.Equal(IndexDef{Table: "T", Columns: []string{"A", "B"}}) {
		t.Error("case-insensitive equal failed")
	}
	if a.Equal(IndexDef{Table: "t", Columns: []string{"b", "a"}}) {
		t.Error("column order ignored")
	}
	if a.Equal(IndexDef{Table: "t", Columns: []string{"a"}}) {
		t.Error("different lengths equal")
	}
	if a.Equal(IndexDef{Table: "u", Columns: []string{"a", "b"}}) {
		t.Error("different tables equal")
	}
}

func TestParseIndexName(t *testing.T) {
	cols, err := ParseIndexName("I(a,b)")
	if err != nil || len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("ParseIndexName = %v, %v", cols, err)
	}
	cols, err = ParseIndexName("I( a , b )")
	if err != nil || len(cols) != 2 || cols[0] != "a" {
		t.Errorf("ParseIndexName with spaces = %v, %v", cols, err)
	}
	for _, bad := range []string{"", "I()", "I(a,)", "Ia,b)", "I(a,b", "X(a)"} {
		if _, err := ParseIndexName(bad); err == nil {
			t.Errorf("ParseIndexName(%q) succeeded", bad)
		}
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	tab, err := c.Table("T") // case-insensitive
	if err != nil || tab.Name != "t" {
		t.Errorf("Table(T) = %v, %v", tab, err)
	}
	if _, err := c.CreateTable("T", testSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := c.CreateTable("", testSchema()); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table found")
	}
}

func TestVersionBumpsOnDDL(t *testing.T) {
	c := New()
	v0 := c.Version()
	c.CreateTable("t", testSchema())
	v1 := c.Version()
	if v1 <= v0 {
		t.Error("CreateTable did not bump version")
	}
	c.AddIndex(IndexDef{Table: "t", Columns: []string{"a"}})
	if c.Version() <= v1 {
		t.Error("AddIndex did not bump version")
	}
}

func TestAddIndexValidation(t *testing.T) {
	c := New()
	c.CreateTable("t", testSchema())
	if err := c.AddIndex(IndexDef{Table: "missing", Columns: []string{"a"}}); err == nil {
		t.Error("index on missing table accepted")
	}
	if err := c.AddIndex(IndexDef{Table: "t", Columns: nil}); err == nil {
		t.Error("index with no columns accepted")
	}
	if err := c.AddIndex(IndexDef{Table: "t", Columns: []string{"zzz"}}); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := c.AddIndex(IndexDef{Table: "t", Columns: []string{"a", "A"}}); err == nil {
		t.Error("index with repeated column accepted")
	}
	if err := c.AddIndex(IndexDef{Table: "t", Columns: []string{"a", "b"}}); err != nil {
		t.Errorf("valid index rejected: %v", err)
	}
	if err := c.AddIndex(IndexDef{Table: "t", Columns: []string{"a", "b"}}); err == nil {
		t.Error("duplicate index accepted")
	}
}

func TestDropIndex(t *testing.T) {
	c := New()
	c.CreateTable("t", testSchema())
	def := IndexDef{Table: "t", Columns: []string{"a"}}
	c.AddIndex(def)
	if err := c.DropIndex("t", "I(a)"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("t", "I(a)"); err == nil {
		t.Error("double drop accepted")
	}
	if _, ok := c.Index("t", "I(a)"); ok {
		t.Error("dropped index still present")
	}
}

func TestTableIndexesSorted(t *testing.T) {
	c := New()
	c.CreateTable("t", testSchema())
	c.CreateTable("u", testSchema())
	c.AddIndex(IndexDef{Table: "t", Columns: []string{"b"}})
	c.AddIndex(IndexDef{Table: "t", Columns: []string{"a"}})
	c.AddIndex(IndexDef{Table: "u", Columns: []string{"a"}})
	idxs := c.TableIndexes("t")
	if len(idxs) != 2 || idxs[0].Name() != "I(a)" || idxs[1].Name() != "I(b)" {
		t.Errorf("TableIndexes = %v", idxs)
	}
}

func TestDropTableRemovesIndexes(t *testing.T) {
	c := New()
	c.CreateTable("t", testSchema())
	c.AddIndex(IndexDef{Table: "t", Columns: []string{"a"}})
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop table accepted")
	}
	if len(c.TableIndexes("t")) != 0 {
		t.Error("indexes survived table drop")
	}
	if len(c.Tables()) != 0 {
		t.Error("tables remain after drop")
	}
}

func TestTablesSorted(t *testing.T) {
	c := New()
	c.CreateTable("zeta", testSchema())
	c.CreateTable("alpha", testSchema())
	tabs := c.Tables()
	if len(tabs) != 2 || tabs[0].Name != "alpha" || tabs[1].Name != "zeta" {
		t.Errorf("Tables() = %v", tabs)
	}
}

func TestCheckStatement(t *testing.T) {
	c := New()
	tbl, err := c.CreateTable("Tab", types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT a FROM tab WHERE a = 1",
		"INSERT INTO TAB VALUES (1, 'x'), (2, 'y')",
		"INSERT INTO tab (S, a) VALUES ('x', 1)",
		"UPDATE tab SET A = 2, s = 'z' WHERE a = 1",
		"DELETE FROM tAB WHERE a = 1",
		"CREATE INDEX ON other (a)",
	} {
		if err := tbl.CheckStatement(sql.MustParse(q)); err != nil {
			t.Errorf("%q refused: %v", q, err)
		}
	}
	for _, q := range []string{
		"SELECT a FROM other",
		"DELETE FROM other WHERE a = 1",
		"INSERT INTO other VALUES (1, 'x')",
		"INSERT INTO tab VALUES (1)",
		"INSERT INTO tab VALUES (1, 'x'), (2, 3)",
		"INSERT INTO tab VALUES ('x', 1)",
		"INSERT INTO tab (a) VALUES (1)",
		"INSERT INTO tab (a, A) VALUES (1, 2)",
		"INSERT INTO tab (a, zz) VALUES (1, 'x')",
		"INSERT INTO tab (s, a) VALUES (1, 'x')",
		"UPDATE tab SET zz = 1",
		"UPDATE tab SET a = 'x'",
		"UPDATE other SET a = 1",
	} {
		if err := tbl.CheckStatement(sql.MustParse(q)); err == nil {
			t.Errorf("%q accepted", q)
		}
	}
}
