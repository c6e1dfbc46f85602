import random

import pytest

from apg.adt import (
    Atom,
    Inl,
    Inr,
    Pair,
    PrimVal,
    Ref,
    Unit,
    Value,
)
from apg.bridges import (
    Column,
    TableSet,
    export_kv,
    export_rdf,
    export_relational,
    import_relational,
    read_tableset,
    write_tableset,
)
from apg.catops import coproduct
from apg.errors import ParseError, PreconditionError, ValidationFailure
from apg.fixtures import load
from apg.files import read_graph
from apg.graph import Graph

from .generators import graph_of, random_graph, schema_of

GRAPH_FIXTURES = [
    "vertices.apg", "edges.apg", "names.apg", "plates1.apg",
    "plates2.apg", "trips.apg", "mapping_input.apg",
]


def fixture(name):
    return read_graph(load(name))


def leaf_count(v: Value) -> int:
    if isinstance(v, Pair):
        return leaf_count(v.first) + leaf_count(v.second)
    if isinstance(v, (Inl, Inr)):
        return leaf_count(v.inner)
    return 1


# ---------------------------------------------------------------------------
# RDF

def test_rdf_edge_triples():
    lines = export_rdf(fixture("edges.apg")).splitlines()
    assert "<apg:e/d1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <apg:l/driver> ." in lines
    assert "<apg:e/d1> <apg:p/driver/fst> <apg:e/t1> ." in lines
    assert "<apg:e/d1> <apg:p/driver/snd> <apg:e/u1> ." in lines
    assert len(lines) == 3 * 2 + 2 * 3


def test_rdf_vertices_emit_a_unit_marker():
    lines = export_rdf(fixture("vertices.apg")).splitlines()
    assert "<apg:e/u1> <apg:p/User> <apg:unit> ." in lines


def test_rdf_counts_one_type_triple_plus_one_per_leaf():
    for name in GRAPH_FIXTURES:
        g = fixture(name)
        expected = sum(1 + leaf_count(el.value) for el in g.elements.values())
        assert len(export_rdf(g).splitlines()) == expected


def test_rdf_trip_log_has_forty_two_triples():
    assert len(export_rdf(fixture("trips.apg")).splitlines()) == 42


def test_rdf_output_is_sorted_and_terminated():
    text = export_rdf(fixture("trips.apg"))
    assert text.endswith(".\n")
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert export_rdf(Graph(fixture("trips.apg").schema, {})) == ""


def test_rdf_spells_sum_paths_into_predicates():
    lines = export_rdf(fixture("trips.apg")).splitlines()
    assert "<apg:e/t1> <apg:p/Trip/snd/snd/fst/inr> <apg:e/e1> ." in lines
    assert "<apg:e/t2> <apg:p/Trip/snd/snd/snd/inl> <apg:unit> ." in lines


def test_rdf_literal_forms():
    lines = export_rdf(fixture("names.apg"))
    assert '<apg:e/n1> <apg:p/name/snd> "Arthur Dent" .' in lines.splitlines()
    lines = export_rdf(fixture("trips.apg"))
    assert ('<apg:e/s1> <apg:p/UnixTimeSeconds> '
            '"1564061155"^^<http://www.w3.org/2001/XMLSchema#integer> .') in lines.splitlines()
    g = graph_of(
        {"m": "String * (Nat * (Double * Boolean))"},
        {"e": ("m", Pair(
            PrimVal("String", 'line\nbreak "q"'),
            Pair(PrimVal("Nat", 5), Pair(PrimVal("Double", 37.78), PrimVal("Boolean", True))),
        ))},
    )
    lines = export_rdf(g).splitlines()
    assert '<apg:e/e> <apg:p/m/fst> "line\\nbreak \\"q\\"" .' in lines
    assert ('<apg:e/e> <apg:p/m/snd/fst> '
            '"5"^^<http://www.w3.org/2001/XMLSchema#nonNegativeInteger> .') in lines
    assert ('<apg:e/e> <apg:p/m/snd/snd/fst> '
            '"37.78"^^<http://www.w3.org/2001/XMLSchema#double> .') in lines
    assert ('<apg:e/e> <apg:p/m/snd/snd/snd> '
            '"true"^^<http://www.w3.org/2001/XMLSchema#boolean> .') in lines


def test_rdf_percent_encodes_structured_names():
    tagged = coproduct(fixture("plates1.apg"), fixture("plates2.apg")).graph
    text = export_rdf(tagged)
    assert "<apg:e/L%3Ap1>" in text
    assert "<apg:l/L%3APlateNumber>" in text


# ---------------------------------------------------------------------------
# Relational shredding

def test_plate_table_columns_follow_leaf_paths():
    tables = export_relational(fixture("plates1.apg"))
    table = tables.tables["PlateNumber"]
    assert table.columns == [
        Column("id", "id"),
        Column("fst", "prim", "String"),
        Column("snd.fst", "prim", "String"),
        Column("snd.snd", "prim", "String"),
    ]
    assert table.rows[0] == (
        Atom("p1"), {"fst": "US", "snd.fst": "CA", "snd.snd": "6TRJ244"}
    )


def test_sum_columns_get_discriminators():
    tables = export_relational(fixture("trips.apg"))
    table = tables.tables["Trip"]
    assert table.columns == [
        Column("id", "id"),
        Column("fst", "fk", "User"),
        Column("snd.fst", "fk", "User"),
        Column("snd.snd.fst#", "disc"),
        Column("snd.snd.fst.inr", "fk", "PlaceEvent"),
        Column("snd.snd.snd#", "disc"),
        Column("snd.snd.snd.inr", "fk", "PlaceEvent"),
    ]
    rows = dict(table.rows)
    assert rows[Atom("t2")] == {
        "fst": Atom("u1"),
        "snd.fst": Atom("u3"),
        "snd.snd.fst#": "r",
        "snd.snd.fst.inr": Atom("e3"),
        "snd.snd.snd#": "l",
    }


def test_unit_typed_labels_shred_to_id_only_tables():
    tables = export_relational(fixture("vertices.apg"))
    assert tables.tables["User"].columns == [Column("id", "id")]
    assert tables.tables["User"].rows == [(Atom("u1"), {})]


def test_relational_round_trip_on_fixtures():
    for name in GRAPH_FIXTURES:
        g = fixture(name)
        assert import_relational(export_relational(g), g.schema) == g


def test_relational_round_trip_on_random_graphs():
    rng = random.Random(41)
    for _ in range(25):
        g = random_graph(rng)
        assert import_relational(export_relational(g), g.schema) == g


def test_csv_round_trip(tmp_path):
    for name in GRAPH_FIXTURES:
        g = fixture(name)
        directory = tmp_path / name
        write_tableset(export_relational(g), directory)
        assert (directory / "manifest.json").exists()
        assert import_relational(read_tableset(directory), g.schema) == g


def test_csv_cells_keep_their_line_breaks(tmp_path):
    texts = ["a\r\nb", "c\rd", "e\nf", "g\u2028h", "i\x85j"]
    g = graph_of({"S": "String"},
                 {f"s{i}": ("S", PrimVal("String", text)) for i, text in enumerate(texts)})
    write_tableset(export_relational(g), tmp_path)
    assert import_relational(read_tableset(tmp_path), g.schema) == g


def test_csv_handles_the_unlabeled_label(tmp_path):
    g = graph_of({"": "1"}, {"e0": ("", Unit())})
    write_tableset(export_relational(g), tmp_path)
    assert (tmp_path / "unlabeled.csv").exists()
    assert import_relational(read_tableset(tmp_path), g.schema) == g


def test_csv_gives_the_unlabeled_label_and_the_label_unlabeled_their_own_files(tmp_path):
    g = graph_of({"": "1", "unlabeled": "1"}, {"a": ("", Unit()), "b": ("unlabeled", Unit())})
    write_tableset(export_relational(g), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "%75nlabeled.csv", "manifest.json", "unlabeled.csv"]
    assert import_relational(read_tableset(tmp_path), g.schema) == g


def _refs(v: Value):
    if isinstance(v, Ref):
        yield v.element
    elif isinstance(v, Pair):
        yield from _refs(v.first)
        yield from _refs(v.second)
    elif isinstance(v, (Inl, Inr)):
        yield from _refs(v.inner)


def test_csv_reading_shares_one_object_per_id(tmp_path):
    # foreign keys name rows of other tables; each must be the row's own id object
    g = coproduct(fixture("edges.apg"), fixture("trips.apg")).graph
    write_tableset(export_relational(g), tmp_path)
    back = import_relational(read_tableset(tmp_path), g.schema)
    assert back == g
    keys = {e: e for e in back.elements}
    refs = [e for el in back.elements.values() for e in _refs(el.value)]
    assert refs and all(keys[e] is e for e in refs)


def test_import_requires_declared_tables():
    g = fixture("vertices.apg")
    tables = export_relational(g)
    tables.tables["Ghost"] = tables.tables.pop("User")
    with pytest.raises(ParseError, match="no declared label"):
        import_relational(tables, g.schema)


def _trip_tables_and_row(eid="t2"):
    g = fixture("trips.apg")
    tables = export_relational(g)
    rows = tables.tables["Trip"].rows
    cells = next(cells for e, cells in rows if e == Atom(eid))
    return g, tables, cells


def test_import_rejects_missing_discriminators():
    g, tables, cells = _trip_tables_and_row()
    del cells["snd.snd.snd#"]
    with pytest.raises(ParseError, match="missing discriminator"):
        import_relational(tables, g.schema)


def test_import_rejects_cells_in_inactive_branches():
    g, tables, cells = _trip_tables_and_row()
    cells["snd.snd.snd.inr"] = Atom("e4")
    with pytest.raises(ParseError, match="outside its active branches"):
        import_relational(tables, g.schema)


@pytest.mark.parametrize("cells, extra", [
    ({"#": "l", "inr#": "l"}, "inr#"),  # a cell of the inactive branch
    ({"#": "r", "inr#": "r", "inr.inr": "a", "note": "b"}, "note"),  # a cell named nowhere
])
def test_import_names_the_cells_a_row_holds_beyond_its_value(cells, extra):
    schema = schema_of({"X": "1 + (1 + String)"})
    tables = export_relational(Graph(schema, {}))
    tables.tables["X"].rows.append((Atom("x"), cells))
    with pytest.raises(ParseError) as raised:
        import_relational(tables, schema)
    assert str(raised.value) == f"row x of 'X' has cells outside its active branches: {extra}"


def test_import_rejects_bad_discriminators():
    g, tables, cells = _trip_tables_and_row()
    cells["snd.snd.snd#"] = "x"
    with pytest.raises(ParseError, match="must be 'l' or 'r'"):
        import_relational(tables, g.schema)


def test_import_rejects_out_of_domain_cells():
    g = fixture("plates1.apg")
    tables = export_relational(g)
    tables.tables["PlateNumber"].rows[0][1]["fst"] = 42
    with pytest.raises(ParseError, match="not a String"):
        import_relational(tables, g.schema)


def test_import_rejects_foreign_keys_that_are_not_ids():
    # a manifest that calls a foreign-key column "prim" hands over JSON scalars
    g, tables, cells = _trip_tables_and_row()
    cells["fst"] = 5
    with pytest.raises(ParseError, match="cell fst of 'Trip' is not an element id"):
        import_relational(tables, g.schema)


def test_import_rejects_duplicate_ids():
    g = fixture("plates1.apg")
    tables = export_relational(g)
    rows = tables.tables["PlateNumber"].rows
    rows.append((rows[0][0], dict(rows[0][1])))
    with pytest.raises(ParseError, match="duplicate id"):
        import_relational(tables, g.schema)


def test_import_surfaces_dangling_references_as_validation_failures():
    g, tables, cells = _trip_tables_and_row()
    cells["snd.snd.fst.inr"] = Atom("nowhere")
    with pytest.raises(ValidationFailure):
        import_relational(tables, g.schema)


# ---------------------------------------------------------------------------
# Key-value

def test_kv_lists_pairs_in_id_order():
    pairs = export_kv(fixture("plates1.apg"), "PlateNumber")
    assert pairs == [
        (PrimVal("String", "US"),
         Pair(PrimVal("String", "CA"), PrimVal("String", "6TRJ244"))),
        (PrimVal("String", "MX"),
         Pair(PrimVal("String", "BC"), PrimVal("String", "AHD-41-02"))),
    ]


def test_kv_requires_unique_first_components():
    with pytest.raises(PreconditionError, match="n1 vs n2"):
        export_kv(fixture("names.apg"), "name")


def test_kv_requires_a_product_typed_label():
    with pytest.raises(PreconditionError):
        export_kv(fixture("vertices.apg"), "User")
    with pytest.raises(PreconditionError):
        export_kv(fixture("vertices.apg"), "Nothing")


def test_kv_respects_reference_keys():
    g = graph_of(
        {"User": "1", "status": "User * String"},
        {
            "u1": ("User", Unit()),
            "u2": ("User", Unit()),
            "s1": ("status", Pair(Ref(Atom("u1")), PrimVal("String", "active"))),
            "s2": ("status", Pair(Ref(Atom("u2")), PrimVal("String", "parked"))),
        },
    )
    pairs = export_kv(g, "status")
    assert pairs == [
        (Ref(Atom("u1")), PrimVal("String", "active")),
        (Ref(Atom("u2")), PrimVal("String", "parked")),
    ]
