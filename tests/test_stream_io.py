import contextlib
import copy
import csv
import hashlib
import io
import json
import pickle
import re
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamaudit import (AttributeSchema, Classifier, EmptyStream,
                         NaiveBayesLearner, ParseError, StreamDataset,
                         UnsupportedFeature, audit_accuracy, dataset_summary,
                         diagnose, parse_arff, parse_csv, prequential_eval,
                         read_prediction_log, to_arff, write_prediction_log)
from streamaudit import cli, stream_io
from streamaudit.rng import uniforms
from streamaudit.stream_io import Instance, _parse_attribute_line
from streamaudit.synth import (MarkovLabelModel, gen_markov_labels,
                               labels_to_csv, labels_to_dataset)

MINIMAL_ARFF = """\
% a comment
@relation tiny
@attribute x numeric
@attribute cls {A,B}
@data
"""

SMALL_ARFF = MINIMAL_ARFF + "1.0,A\n2.5,B\n3.0,A\n"


def arff(text):
    return parse_arff(io.StringIO(text))


def test_minimal_arff_zero_rows():
    ds = arff(MINIMAL_ARFF)
    assert ds.n_instances == 0
    assert ds.n_features == 1
    assert ds.class_values == ("A", "B")
    assert ds.schema[0].name == "x" and not ds.schema[0].is_nominal


def test_small_arff_order_and_values():
    ds = arff(SMALL_ARFF)
    assert ds.labels() == ["A", "B", "A"]
    assert [inst.features[0] for inst in ds.instances] == [1.0, 2.5, 3.0]


def test_arity_mismatch_names_line():
    with pytest.raises(ParseError) as err:
        arff(MINIMAL_ARFF + "1.0,A\n1.0,B,extra\n")
    assert err.value.line == 7


def test_unknown_nominal_value_rejected():
    with pytest.raises(ParseError):
        arff(MINIMAL_ARFF + "1.0,a\n")  # case-sensitive: 'a' != 'A'


def test_sparse_row_rejected():
    with pytest.raises(UnsupportedFeature):
        arff(MINIMAL_ARFF + "{0 1.0, 1 A}\n")


def test_missing_value_rejected():
    with pytest.raises(UnsupportedFeature):
        arff(MINIMAL_ARFF + "?,A\n")


def test_string_attribute_rejected():
    bad = "@relation r\n@attribute s string\n@attribute cls {A,B}\n@data\n"
    with pytest.raises(UnsupportedFeature):
        arff(bad)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_arff_paths_with_crlf_or_cr_line_ends_parse_as_lf(tmp_path, end):
    # a path is opened with newline="", as every text source is; every
    # line is stripped, so the line ends read nothing and count lines alike
    values = ("A", "A", "'b c'")
    text = MINIMAL_ARFF.replace("{A,B}", "{A,'b c'}") + "".join(
        f"{i / 4!r},{values[i % 3]}\n" for i in range(9))
    lf, other = tmp_path / "lf.arff", tmp_path / "other.arff"

    def write(text):
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", end).encode())

    with mock.patch.object(stream_io, "BLOCK_LINES", 4):
        write(text)
        ds = parse_arff(str(lf))
        assert parse_arff(str(other)) == ds == arff(text)
        write(text + "x,A\n")
        errors = []
        for path in (lf, other):
            with pytest.raises(ParseError) as err:
                parse_arff(str(path))
            errors.append(str(err.value))
    assert ds.class_values == ("A", "b c") and ds.n_instances == 9
    assert errors == ["line 15: non-numeric value 'x' for numeric "
                      "attribute 'x'"] * 2


def test_csv_basic():
    ds = parse_csv(io.StringIO("x,cls\n1,UP\n2,DOWN\n3,UP\n"))
    assert ds.n_instances == 3
    assert not ds.schema[0].is_nominal
    assert ds.class_values == ("UP", "DOWN")
    assert ds.labels() == ["UP", "DOWN", "UP"]


def test_csv_non_number_column_is_a_nominal_feature():
    ds = parse_csv(io.StringIO("dir,x,cls\nUP,1,A\nDOWN,2,B\nUP,3,A\n"))
    assert ds.schema[0].values == ("UP", "DOWN")  # inferred nominal feature
    assert not ds.schema[1].is_nominal
    assert ds.class_index == 2 and ds.class_values == ("A", "B")


def test_csv_first_record_is_the_header():
    ds = parse_csv(io.StringIO("1,A\n2,B\n"))
    assert ds.n_instances == 1
    assert [a.name for a in ds.schema] == ["1", "A"]
    assert ds.class_attribute == AttributeSchema("A", ("B",))


def test_csv_ragged_row():
    with pytest.raises(ParseError) as err:
        parse_csv(io.StringIO("x,cls\n1,UP\n2\n"))
    assert err.value.line == 3


def test_csv_empty_input():
    with pytest.raises(ParseError):
        parse_csv(io.StringIO(""))


def test_csv_empty_cell():
    with pytest.raises(UnsupportedFeature):
        parse_csv(io.StringIO("x,cls\n,UP\n"))


def test_csv_arff_equivalence():
    ds_csv = parse_csv(io.StringIO("x,cls\n1,A\n2.5,B\n3,A\n"))
    ds_arff = arff(SMALL_ARFF.replace("1.0,A", "1,A"))
    assert ds_csv == ds_arff


def test_summary_counts():
    ds = arff(SMALL_ARFF)
    s = dataset_summary(ds)
    assert s == {"n_instances": 3, "n_features": 1,
                 "class_values": ["A", "B"],
                 "class_counts": {"A": 2, "B": 1}}


def test_summary_empty():
    with pytest.raises(EmptyStream,
                       match="^an empty stream has no first instance$"):
        dataset_summary(arff(MINIMAL_ARFF))


@st.composite
def datasets(draw):
    n_num = draw(st.integers(0, 3))
    class_values = draw(st.lists(
        st.text(alphabet="abcXYZ", min_size=1, max_size=4),
        min_size=1, max_size=4, unique=True))
    schema = tuple(
        [AttributeSchema(f"f{i}", None) for i in range(n_num)]
        + [AttributeSchema("cls", tuple(class_values))])
    n = draw(st.integers(0, 12))
    instances = []
    for _ in range(n):
        feats = tuple(draw(st.floats(-1e6, 1e6, allow_nan=False))
                      for _ in range(n_num))
        label = draw(st.integers(0, len(class_values) - 1))
        instances.append(Instance(feats, label))
    return StreamDataset(schema, tuple(instances), n_num)


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_arff_round_trip(ds):
    again = parse_arff(io.StringIO(to_arff(ds)))
    assert again == ds


# ---------------------------------------------------------------------------
# quoting: everything to_arff writes, parse_arff reads back

def nominal_dataset(values, rows):
    """A nominal feature in the first column, then a two-value class."""
    schema = (AttributeSchema("v", tuple(values)),
              AttributeSchema("cls", ("A", "B")))
    instances = tuple(Instance((v,), i % 2) for i, v in enumerate(rows))
    return StreamDataset(schema, instances, 1)


@pytest.mark.parametrize("value", ["a,b", "%a", "'q'", "?", "{x", "a\\b",
                                   ' "q" ', "\t"])
def test_arff_quoting_round_trip(value):
    ds = nominal_dataset([value, "plain"], [0, 1, 0])
    text = to_arff(ds)
    assert "plain,B" in text  # values that need no quotes keep their bytes
    assert arff(text) == ds


@pytest.mark.parametrize("name", ["a\tb", "it's", 'say "hi"', "a\\b", "{x",
                                  "%x", "a b", "a,b", "?", "f\nx\r"])
def test_arff_attribute_names_round_trip(name):
    schema = (AttributeSchema(name, None), AttributeSchema(name + "!", ("A",)))
    ds = StreamDataset(schema, (Instance((1.0,), 0),), 1)
    assert arff(to_arff(ds)) == ds


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"],
                         ids=["lf", "cr", "crlf"])
def test_line_breaks_in_csv_cells_round_trip_through_files(tmp_path, brk):
    # a quoted line break in a header cell and in a value
    csv_path, arff_path = tmp_path / "x.csv", tmp_path / "x.arff"
    csv_path.write_text(f'"f{brk}x",cls\n1,"a{brk}b"\n2,B\n', newline="")
    ds = parse_csv(str(csv_path))
    assert [a.name for a in ds.schema] == [f"f{brk}x", "cls"]
    assert ds.class_values == (f"a{brk}b", "B")
    arff_path.write_text(to_arff(ds), newline="")
    assert parse_arff(str(arff_path)) == ds


def test_arff_quoted_names_with_escapes():
    text = MINIMAL_ARFF.replace("x numeric", "'x\\'s y' numeric").replace(
        "cls {A,B}", '"c\\"d"{A,B}')
    ds = arff(text + "1,A\n")
    assert [a.name for a in ds.schema] == ["x's y", 'c"d']
    with pytest.raises(ParseError, match="line 3: unterminated quoted"):
        arff(MINIMAL_ARFF.replace("x numeric", "'x numeric"))


def test_arff_quoted_values_with_escapes():
    text = (MINIMAL_ARFF.replace("{A,B}", "{'a,b', \"c'd\", 'e\\'f'}")
            + "1,'a,b'\n2, \"c'd\" \n3,'e\\'f'\n")
    ds = arff(text)
    assert ds.class_values == ("a,b", "c'd", "e'f")
    assert ds.labels() == ["a,b", "c'd", "e'f"]


def test_arff_quoted_missing_value_is_a_value():
    text = MINIMAL_ARFF.replace("{A,B}", "{'?',B}") + "1,'?'\n"
    assert arff(text).labels() == ["?"]
    with pytest.raises(UnsupportedFeature):
        arff(text + "2,?\n")


nominal_strings = st.text(
    alphabet=st.sampled_from(
        "abcXYZ019 \t\n\r,'\"%\\{}?"), min_size=1, max_size=6)


@given(st.lists(nominal_strings, min_size=1, max_size=5, unique=True),
       st.data())
@settings(max_examples=200, deadline=None)
def test_any_nominal_string_round_trips(values, data):
    rows = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=6))
    ds = nominal_dataset(values, rows)
    assert arff(to_arff(ds)) == ds


# ---------------------------------------------------------------------------
# slow oracles: the row-at-a-time parsers and writer that preceded the
# column-wise ones. The fast code must return equal datasets, raise the same
# error on the same line, and write the same text.

def oracle_attr_value(attr, token, line_no):
    token = token.strip()
    if token == "?":
        raise UnsupportedFeature("missing value '?' not supported", line=line_no)
    if token == "":
        raise UnsupportedFeature("empty cell", line=line_no)
    if attr.is_nominal:
        if token.startswith(("'", '"')) and token.endswith(token[0]) and len(token) > 1:
            token = token[1:-1]
        try:
            return attr.values.index(token)
        except ValueError:
            raise ParseError(
                f"value {token!r} not in nominal set of attribute {attr.name!r}",
                line=line_no,
            ) from None
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"non-numeric value {token!r} for numeric attribute {attr.name!r}",
            line=line_no,
        ) from None


def oracle_parse_arff(source):
    schema = []
    instances = []
    in_data = False
    saw_relation = False
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            lower = line.lower()
            if lower.startswith("@relation"):
                saw_relation = True
                continue
            if lower.startswith("@attribute"):
                schema.append(_parse_attribute_line(line[len("@attribute"):],
                                                    line_no))
                continue
            if lower.startswith("@data"):
                if not schema:
                    raise ParseError("@data before any @attribute", line=line_no)
                in_data = True
                continue
            raise ParseError(f"unexpected header line {line!r}", line=line_no)
        if line.startswith("{"):
            raise UnsupportedFeature("sparse-format row", line=line_no)
        tokens = line.split(",")
        if len(tokens) != len(schema):
            raise ParseError(
                f"row has {len(tokens)} values, schema has {len(schema)} "
                "attributes", line=line_no)
        instances.append((line_no, tokens))
    if not saw_relation and not schema:
        raise ParseError("no @relation/@attribute header found")
    if not in_data:
        raise ParseError("no @data section found")

    if not schema[-1].is_nominal:
        raise ParseError(f"class attribute {schema[-1].name!r} is not nominal")

    parsed = []
    for line_no, tokens in instances:
        values = [oracle_attr_value(a, t, line_no)
                  for a, t in zip(schema, tokens)]
        label = values.pop()
        parsed.append(Instance(tuple(values), label))
    return StreamDataset(tuple(schema), tuple(parsed))


def oracle_infer_column(values):
    floats = []
    for v in values:
        try:
            floats.append(float(v))
        except ValueError:
            floats = None
            break
    if floats is not None:
        return None, floats
    seen = {}
    for v in values:
        if v not in seen:
            seen[v] = len(seen)
    return tuple(seen.keys()), [seen[v] for v in values]


def oracle_parse_csv(source):
    lines = list(source)
    reader = csv.reader(lines)
    rows = []
    row_no = 0
    first = 0  # the index of the line the next record starts on
    try:
        for row_no, row in enumerate(reader, start=1):
            # a comment's first line starts with an unquoted '#' after blanks
            comment = lines[first].lstrip().startswith("#")
            first = reader.line_num
            if not row or comment:
                continue
            rows.append((row_no, [c.strip() for c in row]))
    except csv.Error as exc:  # named by the record csv.reader stopped in
        raise ParseError(str(exc), line=row_no + 1) from None
    if not rows:
        raise ParseError("empty CSV input")
    header = rows[0][1]
    rows = rows[1:]
    n_cols = len(header)
    for row_no, row in rows:
        if len(row) != n_cols:
            raise ParseError(
                f"row has {len(row)} cells, expected {n_cols}", line=row_no)
        for cell in row:
            if cell == "":
                raise UnsupportedFeature("empty cell", line=row_no)
    cls = n_cols - 1
    columns = [[row[i] for _, row in rows] for i in range(n_cols)]
    schema = []
    parsed_cols = []
    for i, col in enumerate(columns):
        if i == cls:
            seen = {}
            for v in col:
                if v not in seen:
                    seen[v] = len(seen)
            if not seen:
                raise EmptyStream("an empty stream has no first instance")
            schema.append(AttributeSchema(header[i], tuple(seen.keys())))
            parsed_cols.append([seen[v] for v in col])
        else:
            values, parsed = oracle_infer_column(col)
            schema.append(AttributeSchema(header[i], values))
            parsed_cols.append(parsed)
    instances = []
    for r in range(len(rows)):
        values = [parsed_cols[c][r] for c in range(n_cols)]
        label = values.pop(cls)
        instances.append(Instance(tuple(values), label))
    return StreamDataset(tuple(schema), tuple(instances), cls)


def oracle_format_value(attr, value):
    if attr.is_nominal:
        v = attr.values[value]
        return f"'{v}'" if ("," in v or " " in v) else v
    return repr(float(value))


def oracle_to_arff(ds, relation="stream"):
    out = io.StringIO()
    out.write(f"@relation {relation}\n")
    for attr in ds.schema:
        name = f"'{attr.name}'" if " " in attr.name else attr.name
        if attr.is_nominal:
            vals = ",".join(f"'{v}'" if ("," in v or " " in v) else v
                            for v in attr.values)
            out.write(f"@attribute {name} {{{vals}}}\n")
        else:
            out.write(f"@attribute {name} numeric\n")
    out.write("@data\n")
    for inst in ds.instances:
        row = list(inst.features)
        row.append(inst.label)
        out.write(",".join(oracle_format_value(a, v)
                           for a, v in zip(ds.schema, row)) + "\n")
    return out.getvalue()


def outcome(parse, text):
    """The parsed dataset's repr (exact for nan and -0.0, unlike ==), or
    the error's class, line and message."""
    try:
        return repr(parse(io.StringIO(text)))
    except (ParseError, UnsupportedFeature, EmptyStream) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


# ARFF inputs: a random schema, rows drawn from valid values with faults
# mixed in, and the lines that the data section may hold besides rows

NOMINALS = ("A", "B", "c d", "e")


@st.composite
def arff_schemas(draw):
    """A schema of one to four features and a nominal class, last."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4)) + [True]
    return [AttributeSchema(f"a{i}", NOMINALS[:draw(st.integers(1, 4))]
                            if nominal else None)
            for i, nominal in enumerate(kinds)]


def _good_token(draw, attr):
    if attr.is_nominal:
        value = draw(st.sampled_from(attr.values))
        return f"'{value}'" if " " in value else value
    return repr(draw(st.floats(-1e6, 1e6, allow_nan=False)))


BAD_TOKENS = ["?", "", " ", "zz", "x1", "1e", "'A", "nan", " 7 ", "-0", "1_0"]


@st.composite
def arff_lines(draw, schema, faults=True):
    kind = draw(st.sampled_from(
        ["row"] * 6 + (["blank", "comment", "bad", "arity", "sparse"]
                       if faults else ["blank", "comment"])))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["%", "% 1,2,3", "  %x,'y'"]))
    if kind == "sparse":
        return "{0 1, 1 A}"
    tokens = [_good_token(draw, a) for a in schema]
    if kind == "bad":
        tokens[draw(st.integers(0, len(tokens) - 1))] = \
            draw(st.sampled_from(BAD_TOKENS))
    if kind == "arity":
        if draw(st.booleans()) or len(tokens) == 1:
            tokens.append("A")
        else:
            tokens.pop()
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + ",".join(tokens) + pad


def arff_text(schema, lines, newline="\n"):
    header = ["% generated", "@relation r"]
    for attr in schema:
        kind = ("{" + ",".join(f"'{v}'" if " " in v else v
                               for v in attr.values) + "}"
                if attr.is_nominal else "numeric")
        header.append(f"@attribute {attr.name} {kind}")
    return newline.join(header + ["@data"] + lines) + newline


@given(st.data(), st.integers(1, 5), st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=300, deadline=None)
def test_parse_arff_matches_row_oracle(data, block, newline):
    schema = data.draw(arff_schemas())
    if data.draw(st.integers(0, 3)) == 0:
        # without its class the schema ends in any feature; a numeric one
        # is an error
        schema = schema[:-1]
    lines = data.draw(st.lists(arff_lines(schema), max_size=12))
    text = arff_text(schema, lines, newline)
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        fast = outcome(parse_arff, text)
    assert fast == outcome(oracle_parse_arff, text)


@given(st.data(), st.integers(stream_io.BLOCK_LINES + 1,
                              2 * stream_io.BLOCK_LINES + 100),
       st.booleans())
@settings(max_examples=10, deadline=None)
def test_parse_arff_error_in_a_later_block(data, at, clean_before):
    """Faults placed after row 4,096 land in a later block; a conversion
    fault before them must not hide a structural fault after them."""
    schema = data.draw(arff_schemas())
    pattern = data.draw(st.lists(arff_lines(schema, faults=False),
                                 min_size=1, max_size=8))
    lines = (pattern * (at // len(pattern) + 2))[:at + 50]
    if not clean_before:
        lines[data.draw(st.integers(0, at - 1))] = \
            data.draw(arff_lines(schema))
    lines[at] = data.draw(arff_lines(schema))
    text = arff_text(schema, lines)
    assert outcome(parse_arff, text) == outcome(oracle_parse_arff, text)


# every header fault parse_arff names: the text, the line it names (None
# for the faults only the end of the file shows) and the message

ARFF_HEADER_FAULTS = {
    "attribute-without-name": (
        "@relation r\n@attribute\n@data\n", 2, "@attribute without a name"),
    "attribute-without-type": (
        "@relation r\n@attribute x numeric\n@attribute cls\n@data\n", 3,
        "attribute 'cls' has no type"),
    "unterminated-value-list": (
        "@relation r\n@attribute cls {A,B\n@data\n", 2,
        "unterminated nominal value list"),
    "empty-nominal-value": (
        "% c\n@relation r\n@attribute cls {A,,B}\n@data\n", 3,
        "empty nominal value"),
    "duplicate-nominal-values": (
        "@relation r\n@attribute cls {A,B,A}\n@data\n", 2,
        "duplicate nominal values"),
    "unknown-type": (
        "@relation r\n@attribute x widget 3\n@data\n", 2,
        "unknown attribute type 'widget 3'"),
    "data-before-attribute": (
        "@relation r\n\n@data\nA\n", 3, "@data before any @attribute"),
    "unexpected-header-line": (
        "@relation r\n@attribute cls {A}\ncls {A}\n@data\n", 3,
        "unexpected header line 'cls {A}'"),
    "no-header": (
        "% only a comment\n\n", None, "no @relation/@attribute header found"),
    "no-data-section": (
        "@relation r\n@attribute cls {A,B}\n", None, "no @data section found"),
}


@pytest.mark.parametrize("text, line, message", ARFF_HEADER_FAULTS.values(),
                         ids=ARFF_HEADER_FAULTS.keys())
def test_arff_header_faults_are_parse_errors_naming_the_line(text, line,
                                                             message):
    with pytest.raises(ParseError) as err:
        arff(text)
    assert type(err.value) is ParseError and err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")
    assert outcome(oracle_parse_arff, text) == \
        (ParseError, line, str(err.value))


def test_parse_arff_lines_follow_newlines_only():
    # \x0c and \x1c split lines for str.splitlines(), not for file iteration
    text = MINIMAL_ARFF + "1.0,A\x0c\n2.0\x1c,B\nx,A\n"
    with pytest.raises(ParseError) as err:
        arff(text)
    assert err.value.line == 8
    assert err.value.line == outcome(oracle_parse_arff, text)[1]


@st.composite
def csv_texts(draw):
    n_cols = draw(st.integers(1, 4))
    numeric = [draw(st.booleans()) for _ in range(n_cols)]
    lines = [",".join(f"c{i}" for i in range(n_cols))]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment",
                                                   "ragged", "bad"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# seed=1", "  #,x"])))
            continue
        cells = [repr(draw(st.floats(-100, 100, allow_nan=False)))
                 if num else draw(st.sampled_from(["UP", "DOWN", "x y",
                                                   '"a,b"', "3"]))
                 for num in numeric]
        if kind == "ragged":
            cells = cells[:-1] if len(cells) > 1 else cells + ["1"]
        if kind == "bad":
            cells[draw(st.integers(0, n_cols - 1))] = \
                draw(st.sampled_from(["", " ", "?", "x"]))
        pad = draw(st.sampled_from(["", " "]))
        lines.append(",".join(pad + c + pad for c in cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


@given(csv_texts())
@settings(max_examples=300, deadline=None)
def test_parse_csv_matches_row_oracle(text):
    assert outcome(parse_csv, text) == outcome(oracle_parse_csv, text)


@st.composite
def mixed_datasets(draw):
    kinds = draw(st.lists(st.booleans(), max_size=4))
    words = st.text(alphabet="abXY01 ,._-", min_size=1, max_size=4)
    schema = [AttributeSchema(f"f{i}", tuple(draw(st.lists(
        words, min_size=1, max_size=4, unique=True))) if nominal else None)
        for i, nominal in enumerate(kinds)]
    schema.append(AttributeSchema("class", tuple(draw(st.lists(
        words, min_size=1, max_size=3, unique=True)))))
    numbers = st.one_of(st.floats(allow_nan=False), st.integers(-9, 9))
    instances = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.integers(0, len(a.values) - 1)) if a.is_nominal
               else draw(numbers) for a in schema]
        label = row.pop()
        instances.append(Instance(tuple(row), label))
    return StreamDataset(tuple(schema), tuple(instances))


@given(mixed_datasets(), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_to_arff_matches_row_oracle(ds, block):
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        assert to_arff(ds, "r") == oracle_to_arff(ds, "r")


@st.composite
def decimal_datasets(draw):
    """Numeric columns of decimals of 0 to 18 places and magnitudes from
    1e-6 to 1e17, as float(Decimal) rounds them. A column's values share
    one number of places or each draw their own, so a block lies on one
    decimal grid, on several, or (past 15 digits) on none to_arff uses."""
    columns = []
    n = draw(st.integers(1, 12))
    for _ in range(draw(st.integers(1, 3))):
        shared = draw(st.integers(0, 18))
        column = []
        for _ in range(n):
            places = draw(st.one_of(st.just(shared), st.integers(0, 18)))
            digits = draw(st.integers(-6, 17)) + places
            bound = 10 ** digits if digits >= 0 else 0
            unscaled = draw(st.integers(-bound, bound))
            column.append(float(Decimal(unscaled).scaleb(-places)))
        columns.append(column)
    schema = [AttributeSchema(f"x{j}") for j in range(len(columns))]
    schema.append(AttributeSchema("cls", ("A", "B")))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return StreamDataset(schema, [Instance(features, label) for features,
                                  label in zip(zip(*columns), labels)])


@given(decimal_datasets(), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_to_arff_writes_decimals_as_repr_does(ds, block):
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        assert to_arff(ds, "r") == oracle_to_arff(ds, "r")


# the values of one numeric block, at the edges of to_arff's decimal path,
# and the lines it writes for them: repr's, which the test checks first
TO_ARFF_NUMBERS = {
    "zeros-and-signs": ([0.0, -0.0, 2.5, -0.125],
                        ["0.0", "-0.0", "2.5", "-0.125"]),
    "fixed-notation-floor": ([1e-4, 0.00012, 7.0],
                             ["0.0001", "0.00012", "7.0"]),
    "grid-value-below-the-floor": ([1e-05, 0.5], ["1e-05", "0.5"]),
    "double-below-the-floor": ([float(np.nextafter(1e-4, 0)), 0.5],
                               ["9.999999999999999e-05", "0.5"]),
    "15-digits": ([999999999999999.9, 1e15 - 1, 0.5],
                  ["999999999999999.9", "999999999999999.0", "0.5"]),
    "1e15-and-up": ([1e15, 1e16, 1.5e17, 2.0],
                    ["1000000000000000.0", "1e+16", "1.5e+17", "2.0"]),
    # 16 digits: 926.1190538231188 reads back to this double too
    "16-digit-grid": ([926.1190538231187, 0.5], ["926.1190538231187", "0.5"]),
    "integer-valued": ([3.0, -17.0, 120.0, 0.0, 123456789012345.0],
                       ["3.0", "-17.0", "120.0", "0.0", "123456789012345.0"]),
    "one-ulp-off-the-grid": ([0.25, float(np.nextafter(0.1, 1))],
                             ["0.25", "0.10000000000000002"]),
    "nan-in-a-grid-block": ([0.5, float("nan"), 0.25],
                            ["0.5", "nan", "0.25"]),
    "infinities-in-a-grid-block": ([0.5, float("inf"), -float("inf")],
                                   ["0.5", "inf", "-inf"]),
    "full-precision-in-a-grid-block": ([0.5, 1 / 3, -2.75],
                                       ["0.5", "0.3333333333333333", "-2.75"]),
}


@pytest.mark.parametrize("values, lines", TO_ARFF_NUMBERS.values(),
                         ids=TO_ARFF_NUMBERS.keys())
def test_to_arff_numbers_at_the_decimal_path_edges(values, lines):
    assert lines == list(map(repr, values))
    ds = StreamDataset((AttributeSchema("x"), AttributeSchema("cls", ("A",))),
                       [Instance((value,), 0) for value in values])
    text = to_arff(ds)
    assert text.split("@data\n")[1] == "".join(f"{line},A\n"
                                                for line in lines)
    assert repr(arff(text)) == repr(ds)  # exact for nan and -0.0


def test_csv_numbers_survive_to_arff_bit_for_bit():
    # decimals, full-precision floats, -0.0, 1e-05 and inf over two blocks
    ds = parse_csv(io.StringIO("x,y,z,cls\n" + "".join(
        "%.3f,%r,%s,%s\n" % (i / 7, i / 7, ("-0.0", "1e-05", "inf")[i % 3],
                             "AB"[i % 2]) for i in range(5000))))
    assert repr(arff(to_arff(ds))) == repr(ds)  # exact for -0.0


@pytest.mark.parametrize("k", range(16))
def test_to_arff_digit_loop_at_every_width_and_place_count(k):
    # for each integer width w with w + k <= 15, 10**(w-1) + 10**-k has
    # interior zeros and 10**w - 10**-k is all nines; beside them a value
    # below 1, -0.0 and negatives. The block lies on the k-place grid and
    # no coarser one, so the digit loop writes all of it
    below = float(Decimal(10 ** k - 1).scaleb(-k))
    for w in range(k == 0, 16 - k):
        interior, nines = (float(Decimal(d).scaleb(-k)) for d in
                           (10 ** (w + k - 1) + 1, 10 ** (w + k) - 1))
        values = [interior, -nines, below, -0.0, nines, -interior]
        ds = StreamDataset((AttributeSchema("x"),
                            AttributeSchema("cls", ("A",))),
                           [Instance((value,), 0) for value in values])
        with mock.patch.object(stream_io, "_decimal_field",
                               wraps=stream_io._decimal_field) as spy:
            text = to_arff(ds)
        assert spy.call_args.args[2] == k
        assert text.split("@data\n")[1] == "".join(f"{value!r},A\n"
                                                    for value in values)
        assert repr(arff(text)) == repr(ds)  # exact for -0.0


def test_to_arff_nominal_values_with_nul_accent_quote_and_surrogate():
    # a NUL byte would vanish with padding of NULs, and a lone surrogate
    # has no strict UTF-8 form
    values = ("a\0b", "é", "'", "plain", "x\udc80")
    ds = StreamDataset((AttributeSchema("v", values),
                        AttributeSchema("cls", ("A", "B"))),
                       [Instance((j,), j % 2) for j in (0, 1, 2, 3, 4, 0)])
    text = to_arff(ds)
    assert "@attribute v {a\0b,é,'\\'',plain,x\udc80}\n" in text
    assert text.split("@data\n")[1] == \
        "a\0b,A\né,B\n'\\'',A\nplain,B\nx\udc80,A\na\0b,A\n"
    assert arff(text) == ds


def test_to_arff_quotes_the_relation():
    ds = arff(SMALL_ARFF)
    assert to_arff(ds).startswith("@relation stream\n")
    text = to_arff(ds, relation="a\nb")
    assert text.startswith("@relation 'a\\nb'\n")
    assert arff(text) == ds


def test_csv_empty_header_cell_round_trips():
    ds = parse_csv(io.StringIO("a,,cls\n1,2,A\n"))
    text = to_arff(ds)
    assert "@attribute '' numeric" in text
    assert arff(text) == ds
    assert [a.name for a in arff(text).schema] == ["a", "", "cls"]


# ---------------------------------------------------------------------------
# CSV blocks: parse_csv splits blocks at commas until a block holds a '"',
# then csv.reader reads the rest; both must read as the row oracle does

def csv_outcome(parse, text, newline="\n"):
    """outcome() for CSV, read as a stream with the given newline mode."""
    try:
        return repr(parse(io.StringIO(text, newline=newline)))
    except (ParseError, UnsupportedFeature, EmptyStream) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


NUMBER_CELLS = ["3", "3.0", "-0", "1e0", "nan", "1_0", "0.25"]
WORD_CELLS = ["UP", "DOWN", "x y", "3", '"a,b"', '"p\nq"', '"r\r\ns"',
              '"#c"', "a\x00b"]
PADS = ["", " ", "\t", "\x0c", "\x1c", "\u3000"]


@st.composite
def csv_records(draw, n_cols, numeric, faults=True):
    """One CSV line without its line end: a row, a blank or a comment, or,
    with faults, a ragged row, an empty cell or a non-number."""
    kinds = ["row"] * 6 + ["blank", "comment"]
    kind = draw(st.sampled_from(kinds + (["ragged", "bad"] if faults else [])))
    if kind == "blank":
        return ""
    if kind == "comment":
        return draw(st.sampled_from(["# seed=1", "\t#,x"]))
    cells = [draw(st.sampled_from(NUMBER_CELLS if num else WORD_CELLS))
             for num in numeric]
    if kind == "ragged":
        cells = cells[:-1] if len(cells) > 1 else cells + ["1"]
    if kind == "bad":
        cells[draw(st.integers(0, n_cols - 1))] = \
            draw(st.sampled_from(["", " ", "\x0c", "\x1c", "\u3000", "x",
                                  '"q"']))
    pad = draw(st.sampled_from(PADS))
    return ",".join(pad + c + pad for c in cells)


@st.composite
def csv_block_texts(draw):
    r"""CSV texts with quoted fields (one across a line break), blank and
    comment lines, '\n', '\r\n' and lone '\r' line ends, '\x0c', '\x1c',
    '\u3000' and tab padding, a NUL, and numbers spelled two ways in a
    column that a later non-number may turn nominal."""
    n_cols = draw(st.integers(1, 4))
    numeric = [draw(st.booleans()) for _ in range(n_cols)]
    lines = [",".join(f"c{i}" for i in range(n_cols))]
    lines += draw(st.lists(csv_records(n_cols, numeric), max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


@given(csv_block_texts(), st.integers(1, 5), st.data())
@settings(max_examples=500, deadline=None)
def test_parse_csv_blocks_match_row_oracle(text, block, data):
    # file iteration as a path opens it (any line end), or '\n' only
    newline = data.draw(st.sampled_from(["", "\n"]))
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        fast = csv_outcome(parse_csv, text, newline)
    assert fast == csv_outcome(oracle_parse_csv, text, newline)


def labels_outcome(parse, text, newline):
    """The class attribute and labels that parse reads, or its error."""
    try:
        ds = parse(io.StringIO(text, newline=newline))
    except (ParseError, UnsupportedFeature, EmptyStream) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return ds.class_attribute, ds.labels()


def read_class_only(source):
    return stream_io._read_csv(source, class_only=True)[0]


@given(csv_block_texts(), st.integers(1, 5), st.data())
@settings(max_examples=500, deadline=None)
def test_class_only_read_matches_parse_csv(text, block, data):
    """The class-only read converts no feature, yet raises parse_csv's
    error or reads its class attribute and labels, also when a numeric
    column turns nominal in a later block."""
    newline = data.draw(st.sampled_from(["", "\n"]))
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        full = labels_outcome(parse_csv, text, newline)
        labels = labels_outcome(read_class_only, text, newline)
    assert labels == full


def test_class_only_read_holds_the_class_column_alone(multiclass_text):
    full = parse_csv(io.StringIO(multiclass_text))
    ds, n_features = stream_io._read_csv(io.StringIO(multiclass_text),
                                         class_only=True)
    assert ds.schema == (full.class_attribute,) and ds.class_index == 0
    assert n_features == full.n_features
    assert np.array_equal(ds.columns[0], full.columns[full.class_index])


@given(csv_block_texts(), st.integers(1, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_cli_summary_of_a_csv_prints_parse_csvs_summary(tmp_path_factory,
                                                        text, block, data):
    """`summary` reads a CSV's class column alone and counts the features
    from the header, yet prints parse_csv's summary or fails with its error,
    also with a quoted, BOM-prefixed header after comment or blank lines."""
    head = re.match(r"c0(?:,c\d)*", text).group()
    if data.draw(st.booleans()):  # each header cell quoted, with a comma
        text = text.replace(head, ",".join(
            f'"{cell[0]},{cell[1:]}"' for cell in head.split(",")), 1)
    text = data.draw(st.sampled_from(["", "\n", "# a, b\n", "\r\n#x,y,z\r"])
                     ) + text
    path = tmp_path_factory.getbasetemp() / "summary.csv"
    path.write_bytes(text.encode(data.draw(st.sampled_from(["utf-8",
                                                            "utf-8-sig"]))))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        try:
            full = json.dumps(dataset_summary(parse_csv(str(path))), indent=2)
            expected = (0, full + "\n", "")
        except (ParseError, UnsupportedFeature, EmptyStream) as exc:
            expected = (2, "", f"error: {exc}\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["summary", "--input", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == expected


def test_class_only_read_peaks_well_under_parse_csv(tmp_path):
    """The class-only read splits no feature cell out of its line, so on a
    wide CSV, read from a path, its traced peak is well under the full
    read's (a StringIO source would hold 4 bytes per character)."""
    values = np.random.default_rng(0).random((5000, 40))
    path = tmp_path / "wide.csv"
    path.write_text(",".join([f"f{j}" for j in range(40)] + ["cls"]) + "\n"
                    + "".join(",".join(map("{:.6f}".format, row))
                              + f",{'ABC'[i % 3]}\n"
                              for i, row in enumerate(values.tolist())))

    def peak(read):
        tracemalloc.start()
        try:
            read(str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(read_class_only) <= 0.6 * peak(parse_csv)


@given(st.data(), st.integers(stream_io.BLOCK_LINES + 1,
                              2 * stream_io.BLOCK_LINES + 100),
       st.booleans())
@settings(max_examples=10, deadline=None)
def test_parse_csv_fault_in_a_later_block(data, at, clean_before):
    """A ragged row, an empty cell, a non-number in a column that was
    numeric so far or a '"' after record 4,096 lands in a later block; a
    line before it may be faulty too, or quoted."""
    n_cols = data.draw(st.integers(1, 4))
    numeric = [data.draw(st.booleans()) for _ in range(n_cols)]
    pattern = data.draw(st.lists(
        csv_records(n_cols, numeric, faults=False).filter(
            lambda line: '"' not in line and "\x00" not in line),
        min_size=1, max_size=8))
    lines = ([",".join(f"c{i}" for i in range(n_cols))]
             + (pattern * (at // len(pattern) + 2))[:at + 50])
    if not clean_before:
        lines[data.draw(st.integers(1, at - 1))] = \
            data.draw(csv_records(n_cols, numeric))
    lines[at] = data.draw(st.one_of(
        csv_records(n_cols, numeric),
        csv_records(n_cols, [False] * n_cols, faults=False)))
    text = "\n".join(lines) + "\n"
    assert csv_outcome(parse_csv, text) == csv_outcome(oracle_parse_csv, text)


def test_csv_nul_follows_the_local_csv_reader():
    # csv.reader rejects a NUL on Python 3.10 and reads it from 3.11 on
    text = "x,cls\n1,A\x00\n2,B\n"
    try:
        list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        with pytest.raises(ParseError, match=re.escape(f"line 2: {exc}")):
            parse_csv(io.StringIO(text))
    else:
        assert parse_csv(io.StringIO(text)).class_values == ("A\x00", "B")


def test_csv_field_over_the_size_limit_is_a_csv_reader_error():
    # a ParseError naming the record, also when csv.reader takes over in a
    # later block and a quoted field spans two lines before it
    text = "x,cls\n1,A\n" + "1" * 20 + ",B\n"
    later = "x,cls\n" + "1,A\n" * 5 + '"2\n3",B\n' + "1" * 20 + ",B\n"
    old = csv.field_size_limit(16)
    try:
        with pytest.raises(ParseError, match="^line 3: field larger than "
                                             "field limit \\(16\\)$"):
            parse_csv(io.StringIO(text))
        with mock.patch.object(stream_io, "BLOCK_LINES", 2), \
                pytest.raises(ParseError) as err:
            stream_io._read_csv(io.StringIO(later), class_only=True)
        assert err.value.line == 8
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("read, text", [
    (parse_csv, "x,cls\n1,caf\xe9\n"),
    (parse_arff, MINIMAL_ARFF + "1.0,A\n% caf\xe9\n"),
], ids=["csv", "arff"])
def test_latin1_input_is_a_parse_error(tmp_path, read, text):
    path = tmp_path / "latin1"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert str(err.value) == f"{path} is not UTF-8 text"


@pytest.mark.parametrize("read, text", [
    (parse_csv, "x,cls\n1,A\n2,B\n"),
    (parse_arff, SMALL_ARFF),
    (read_prediction_log, "true,predicted\nA,A\nB,A\n"),
], ids=["csv", "arff", "log"])
def test_a_path_read_skips_a_utf8_byte_order_mark(tmp_path, read, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = read(str(plain))
    assert read(str(marked)) == expected
    # and so does a stream read: seekable (a StringIO, a file opened as
    # stdin is), or not (a pipe, any iterable of lines)
    assert read(io.StringIO("\ufeff" + text)) == expected
    with open(marked, encoding="utf-8", newline="") as fh:
        assert read(fh) == expected
    lines = ("\ufeff" + text).splitlines(keepends=True)
    assert read(iter(lines)) == expected
    assert read(lines) == expected


def test_csv_number_spellings_stay_apart_when_a_column_turns_nominal():
    text = "x,cls\n3,A\n3.0,A\n" + "1,B\n" * 5 + "x,A\n3,B\n"
    with mock.patch.object(stream_io, "BLOCK_LINES", 2):
        ds = parse_csv(io.StringIO(text))
    assert ds.schema[0].values == ("3", "3.0", "1", "x")
    assert ds.columns[0].tolist() == [0, 1] + [2] * 5 + [3, 0]


def multiclass_csv(n=45_312, seed=7):
    """A 9-column 3-class CSV shaped like the benchmark's: a numeric date
    and period, a spelled-out day, five more numeric features (all rounded
    to 6 places) and sticky low/mid/high labels that move with probability
    0.03."""
    u = uniforms(seed, 9 * n).reshape(9, n)
    state, labels = int(u[1, 0] * 3), []
    for stay, pick in zip(u[0].tolist(), u[1].tolist()):
        if stay >= 0.97:
            state = (state + 1 + int(pick * 2)) % 3
        labels.append(state)
    t = np.arange(n)
    y = np.asarray(labels) == 2
    numeric = [np.round(col, 6) for col in [t / (n - 1), (t % 48) / 47] + [
        0.2 + 0.5 * u[j] + 0.03 * j * y for j in range(2, 7)]]
    days = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
    lines = ["date,day,period,nswprice,nswdemand,vicprice,vicdemand,"
             "transfer,class"]
    for date, period, d, *rest, label in zip(
            *(col.tolist() for col in numeric[:2]), (t // 48 % 7).tolist(),
            *(col.tolist() for col in numeric[2:]), labels):
        lines.append(f"{date!r},{days[d]},{period!r},"
                     + ",".join(map(repr, rest))
                     + f",{('low', 'mid', 'high')[label]}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def multiclass_text():
    return multiclass_csv()


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# byte-identity gate for the block-wise CSV reader: sha256 of the parsed
# dataset's repr and of its ARFF text, computed with the whole-file reader
# that preceded it

def test_parse_csv_golden_sha256(multiclass_text):
    ds = parse_csv(io.StringIO(multiclass_text))
    assert _sha256(repr(ds)) == \
        "1a911d0c90478ca07b746d9be74dc3303ad552861a0f1a592d6710e90d31f8dd"
    assert _sha256(to_arff(ds)) == \
        "2b22dcd61d14f5efefcd200aaa15e554c740ff552fdc903e838ef92bddf3416a"
    codes = gen_markov_labels(MarkovLabelModel(0.42, 0.7, 45312, seed=42))
    ds = parse_csv(io.StringIO(labels_to_csv(codes, seed=42)))
    assert _sha256(repr(ds)) == \
        "9165f3cbaac0746b1398ab1d9fd1077c94d2cc14e6a7f07032800f9b9e0be5e6"
    assert _sha256(to_arff(ds)) == \
        "d75b8eadd5a11bf20672d686d338802809c66d392d360767ea546ecb72167ce5"


def test_parse_csv_peak_memory_stays_near_the_file_size(multiclass_text,
                                                        tmp_path):
    """A reader that kept every cell as a str until the end peaked at
    12.5 times the file's size on this input; block-wise about 3."""
    path = tmp_path / "multi.csv"
    path.write_text(multiclass_text, encoding="utf-8")
    tracemalloc.start()
    try:
        parse_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * path.stat().st_size


@pytest.mark.parametrize("text", ["x,cls\n1,A\n2,B\n",
                                  "x,cls\n# note\n1,A\n\n2,B\n"],
                         ids=["plain", "comment-and-blank"])
def test_split_csv_blocks_hold_one_copy_of_their_text(text):
    """While a split block is out, the reader keeps its records and not
    the raw lines or their joined text beside them."""
    blocks = stream_io._csv_blocks(io.StringIO(text))
    nos, records, split = next(blocks)
    assert split and records[0] == "x,cls"
    assert {"block", "text"}.isdisjoint(blocks.gi_frame.f_locals)


# ---------------------------------------------------------------------------
# columns: the dataset's one store; instances is a view built on demand

@st.composite
def instance_rows(draw):
    """(schema, instances): numeric features drawn as floats or ints,
    nominal features and the class (last) as value indices."""
    kinds = draw(st.lists(st.booleans(), max_size=3))
    words = st.text(alphabet="abXY01 ,'", min_size=1, max_size=3)
    schema = [AttributeSchema(f"f{i}", tuple(draw(st.lists(
        words, min_size=1, max_size=3, unique=True))) if nominal else None)
        for i, nominal in enumerate(kinds)]
    schema.append(AttributeSchema("class", ("A", "B", "c d")))
    numbers = st.one_of(st.floats(allow_nan=False), st.integers(-9, 9))
    instances = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.integers(0, len(a.values) - 1)) if a.is_nominal
               else draw(numbers) for a in schema]
        label = row.pop()
        instances.append(Instance(tuple(row), label))
    return tuple(schema), instances


class Recorder(Classifier):
    """Keeps every (features, label) pair prequential_eval hands over."""

    def __init__(self):
        self.seen = []

    def predict(self, features):
        return None

    def update(self, features, label):
        self.seen.append((features, label))


@given(instance_rows(), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_dataset_from_instances_equals_its_parsed_arff(rows, block):
    schema, instances = rows
    with mock.patch.object(stream_io, "BLOCK_LINES", block):
        ds = StreamDataset(schema, instances)
        again = parse_arff(io.StringIO(to_arff(ds)))
        assert again == ds and repr(again) == repr(ds)
        types = [int if a.is_nominal else float for a in ds.schema[:-1]]
        for view in (ds.instances, again.instances):
            assert view == tuple(instances)
            for inst in view:
                assert type(inst.label) is int
                assert [type(v) for v in inst.features] == types
        if instances:
            recorder = Recorder()
            prequential_eval(recorder, again)
            assert recorder.seen == [
                (inst.features, ds.class_values[inst.label])
                for inst in instances]


def test_columns_hold_one_typed_array_per_attribute():
    ds = arff(MINIMAL_ARFF.replace("@data", "@attribute d {u,v}\n@data")
              + "1.5,A,v\n2,B,u\n")
    assert len(ds.columns) == len(ds.schema) == 3
    assert [col.dtype.kind for col in ds.columns] == ["f", "i", "i"]
    assert [col.tolist() for col in ds.columns] == [[1.5, 2.0], [0, 1],
                                                    [1, 0]]


def test_repr_is_complete_for_long_streams():
    n = 1500
    ds = StreamDataset((AttributeSchema("x", None),
                        AttributeSchema("cls", ("A", "B"))),
                       [Instance((i / 7,), i % 2) for i in range(n)], 1)
    text = repr(ds)
    assert "..." not in text
    assert repr((n - 1) / 7) in text
    assert repr(ds) != repr(StreamDataset(ds.schema, ds.instances[:-1], 1))


def test_equality_compares_every_value():
    schema = (AttributeSchema("x", None), AttributeSchema("cls", ("A", "B")))
    rows = [Instance((i / 7,), i % 2) for i in range(20)]
    ds = StreamDataset(schema, rows, 1)
    assert ds == StreamDataset(schema, list(rows), -1)
    assert hash(ds) == hash(StreamDataset(schema, rows, 1))
    for changed in (Instance((0.5,), 1), Instance((19 / 7,), 0)):
        assert ds != StreamDataset(schema, rows[:-1] + [changed], 1)
    assert ds != StreamDataset(schema, rows[:-1], 1)
    assert ds != ds.instances


def test_columns_reject_writes():
    built = StreamDataset((AttributeSchema("x", None),
                           AttributeSchema("cls", ("A", "B"))),
                          [Instance((1.0,), 0)], 1)
    parsed = arff(SMALL_ARFF)
    for ds in (parsed, parse_csv(io.StringIO("x,c\n1,A\n")), built,
               labels_to_dataset([0, 1, 1]), copy.deepcopy(parsed),
               pickle.loads(pickle.dumps(parsed))):
        assert isinstance(ds.columns, tuple)
        for col in ds.columns:
            with pytest.raises(ValueError):
                col[0] = 1
        with pytest.raises(AttributeError):
            ds.columns = ()
    assert built.instances is built.instances  # built once


@pytest.mark.parametrize("values, message", [
    ((), "empty nominal value"),
    (("", "a"), "empty nominal value"),
    (("a", "b", "a"), "duplicate nominal values"),
], ids=["no-values", "empty-value", "duplicate-values"])
def test_attribute_schema_holds_the_nominal_value_rule(values, message):
    # the rule parse_arff applies to a header, so whatever to_arff writes
    # reads back
    with pytest.raises(ValueError) as err:
        AttributeSchema("x", values)
    assert str(err.value) == message
    header = "@attribute x {" + ",".join(map(stream_io._quote, values)) + "}"
    with pytest.raises(ParseError, match=f"^line 1: {message}$"):
        arff(header + "\n@data\n")


@pytest.mark.parametrize("class_index, message", [
    (0, "class attribute 'x' is not nominal"),
])
def test_a_bad_class_index_is_refused_as_parse_arff_refuses_it(class_index,
                                                               message):
    # a class put before the last attribute leaves a numeric one last
    schema = [AttributeSchema("x", None)]
    schema.insert(class_index, AttributeSchema("cls", ("A", "B")))
    with pytest.raises(ValueError) as err:
        StreamDataset(schema, [Instance((0,), 1.0)])
    assert str(err.value) == message
    header = "@relation r\n@attribute cls {A,B}\n@attribute x numeric\n@data\n"
    with pytest.raises(ParseError) as err:
        arff(header + "A,1\n")
    assert str(err.value) == message and err.value.line is None
    # raised only once the whole structure is checked
    with pytest.raises(ParseError, match="^line 6: row has 1 values"):
        arff(header + "A,1\nB\n")


@pytest.mark.parametrize("class_index", [0, -2, 2, 3])
def test_a_class_index_other_than_the_last_attribute_is_refused(class_index):
    schema = (AttributeSchema("x", None), AttributeSchema("cls", ("A", "B")))
    rows = [Instance((1.0,), 0)]
    with pytest.raises(ValueError) as err:
        StreamDataset(schema, rows, class_index)
    assert str(err.value) == \
        f"class index {class_index} is not the last of 2 attributes"
    assert StreamDataset(schema, rows, -1) == StreamDataset(schema, rows, 1)
    assert StreamDataset(schema, rows).class_index == 1


def test_instance_codes_must_index_the_value_list():
    schema = (AttributeSchema("x", None), AttributeSchema("cls", ("A", "B")))
    for label in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            StreamDataset(schema, [Instance((1.0,), label)], 1)
    with pytest.raises(ValueError, match="feature values"):
        StreamDataset(schema, [Instance((1.0, 2.0), 0)], 1)
    with pytest.raises(TypeError):
        StreamDataset(schema, [Instance((1.0,), 1.0)], 1)


def test_library_paths_construct_no_instances(monkeypatch):
    made = []
    init = Instance.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counting)
    rows = "".join(f"{i / 3!r},{'AB'[i // 5 % 2]}\n" for i in range(40))
    ds = arff(SMALL_ARFF + rows)
    from_csv = parse_csv(io.StringIO("x,cls\n" + rows))
    assert arff(to_arff(from_csv)) == from_csv
    assert ds.labels()[:3] == ["A", "B", "A"]
    assert dataset_summary(ds)["class_counts"] == {"A": 22, "B": 21}
    diagnose(ds, max_lag=4)
    audit_accuracy(0.5, ds)
    prequential_eval(NaiveBayesLearner(ds), ds)
    assert made == []
    assert len(ds.instances) == len(made) == 43  # the view is counted


# Block-level arity: a data block whose every line holds one comma fewer
# than the schema has attributes, and no quote, '%' or '{', is converted
# from its raw lines; a block with any other line is read line by line.
# Either way the dataset, or the error and its line, is the per-line
# oracle's.

ODD_DATA_LINES = {
    "comment": "% a comment",
    "blank": "",
    "spaces": " \t",
    "sparse": "{0 1.5,1 A}",
    "quoted": "4.5,'c d'",
    "ragged": "4.5,A,B",
    "short": "4.5",
    "cr-only": "4.5,A\r5.5,B",
    "padded": "  4.5 ,\tB \x0c",
    "empty-cell": "4.5,",
    "missing": "?,A",
    "not-a-number": "x4.5,A",
}
BLOCK_ARFF = MINIMAL_ARFF.replace("{A,B}", "{A,B,'c d'}")


def block_arff(odd, at, newline):
    lines = [f"{i / 4!r},{'AB'[i % 3 // 2]}" for i in range(30)]
    lines.insert(at, odd)
    return BLOCK_ARFF.replace("\n", newline) + newline.join(lines) + newline


def stream_outcome(parse, text, newline):
    try:
        return repr(parse(io.StringIO(text, newline=newline)))
    except (ParseError, UnsupportedFeature) as exc:
        return type(exc), exc.line, str(exc)


@pytest.mark.parametrize("odd", ODD_DATA_LINES.values(), ids=ODD_DATA_LINES)
@pytest.mark.parametrize("at", [0, 13, 30])
@pytest.mark.parametrize("end, newline", [("\n", "\n"), ("\r\n", "\n"),
                                          ("\r", ""), ("\r\n", "")],
                         ids=["lf", "crlf", "cr-path", "crlf-path"])
def test_arff_blocks_read_as_the_per_line_oracle(odd, at, end, newline):
    text = block_arff(odd, at, end)
    with mock.patch.object(stream_io, "BLOCK_LINES", 4):
        fast = stream_outcome(parse_arff, text, newline)
    assert fast == stream_outcome(oracle_parse_arff, text, newline)


def test_clean_arff_blocks_skip_the_per_line_loop():
    # the raw lines, line ends and all, go to the conversion at once
    text = block_arff("% odd", 13, "\n")
    converted = []

    def spy(schema, rows, line_nos, quoted):
        converted.append((type(line_nos), rows[0].endswith("\n")))
        return convert(schema, rows, line_nos, quoted)

    convert = stream_io._convert_block
    with mock.patch.object(stream_io, "BLOCK_LINES", 4), \
            mock.patch.object(stream_io, "_convert_block", spy):
        assert repr(arff(text)) == repr(oracle_parse_arff(io.StringIO(text)))
    # the odd line's block (lines 18-21 of the file) goes line by line
    assert converted == [(range, True)] * 3 + [(list, False)] \
        + [(range, True)] * 4


# The prediction log reads as csv.reader reads it, a ragged row or a
# csv.reader error named by the physical line csv.reader stopped at
# (parse_csv names the record), and a '#' starting a label, not a comment.

LOG_CELLS = ["UP", "DOWN", " pad ", "#x", "# c", "a,b", 'say "x"', "p\nq",
             "r\r\ns", "", "c'd", "\t"]


@st.composite
def prediction_log_texts(draw):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    out.write(draw(st.sampled_from(["", "\n"])))
    out.write(draw(st.sampled_from(["true,predicted\n",
                                    " true , predicted \n", "t,p\n"])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "raw",
                                                   "ragged"]))
        if kind == "blank":
            out.write("\n")
        elif kind == "raw":
            out.write(draw(st.sampled_from(["# seed=1\n", " A , B \n",
                                            "A,B\r", "A,B\rC,D\n",
                                            '"A,B\n', "a\x00,b\n"])))
        else:
            width = 2 if kind == "row" else draw(st.sampled_from([1, 3]))
            writer.writerow(draw(st.lists(st.sampled_from(LOG_CELLS),
                                          min_size=width, max_size=width)))
    text = out.getvalue()
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


def oracle_read_log(source):
    """read_prediction_log by csv.reader, one record at a time."""
    header, log = None, []
    reader = csv.reader(source)
    try:
        for row in reader:
            if not row:
                continue
            if header is None:
                header = row
                if [c.strip() for c in row] != ["true", "predicted"]:
                    raise ParseError("expected a CSV with header "
                                     "'true,predicted'", line=reader.line_num)
            elif len(row) != 2:
                raise ParseError(f"row has {len(row)} cells, expected 2",
                                 line=reader.line_num)
            else:
                log.append(tuple(row))
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if header is None:
        raise ParseError("expected a CSV with header 'true,predicted'")
    return log


def log_outcome(read, text, newline):
    try:
        return read(io.StringIO(text, newline=newline))
    except ParseError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


@given(prediction_log_texts(), st.sampled_from(["", "\n"]))
@settings(max_examples=500, deadline=None)
def test_prediction_log_reads_as_csv_reader(text, newline):
    assert log_outcome(read_prediction_log, text, newline) == \
        log_outcome(oracle_read_log, text, newline)


def test_a_hash_starts_a_label_not_a_comment():
    text = "true,predicted\n#a,b\n # c,#d\n"
    assert read_prediction_log(io.StringIO(text)) == [("#a", "b"),
                                                      (" # c", "#d")]
    with pytest.raises(EmptyStream,
                       match="^an empty stream has no first instance$"):
        parse_csv(io.StringIO(text))  # to parse_csv both are comments


def test_a_cell_holding_a_bare_cr_is_quoted():
    # pinned bytes, so that every Python version CI runs writes these
    log = [("UP", "\r"), ("\r", "UP"), ("a\rb", 'c\r"d'), ("r\r\ns", "UP"),
           ("a,b", 'say "x"'), ("UP", "DOWN"), ("", "")]
    assert write_prediction_log(log) == (
        'true,predicted\nUP,"\r"\n"\r",UP\n"a\rb","c\r""d"\n"r\r\ns",UP\n'
        '"a,b","say ""x"""\nUP,DOWN\n,\n')
    assert stream_io.write_csv(("x",), [("\r",)], comment='c ",') == \
        '# c ",\nx\n"\r"\n'


# any UTF-8 text but NUL, which Python 3.10's csv.reader refuses, with the
# characters that CSV, ARFF and the readers treat apart drawn often
LOG_LABELS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=4),
    st.lists(st.sampled_from(["\r", "\n", "\r\n", "\ufeff", "#", "%", "?",
                              '"', "'", ",", " ", "UP"]),
             max_size=4).map("".join))


@given(st.lists(st.tuples(LOG_LABELS, LOG_LABELS), max_size=6))
@settings(max_examples=200, deadline=None)
def test_a_written_log_reads_back(tmp_path_factory, log):
    text = write_prediction_log(log)
    path = tmp_path_factory.getbasetemp() / "round-trip-log.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_prediction_log(str(path)) == log
    assert read_prediction_log(io.StringIO(text)) == log


# CSV cells that parse_csv reads back trimmed: not blank, with the
# characters that quoting and comments turn on drawn often
CSV_CELLS = st.lists(st.sampled_from(["#", " ", "\t", "\x1c", ",", '"', "\r",
                                      "\n", "\r\n", "a", "1"]),
                     min_size=1, max_size=4).map("".join).filter(str.strip)


@given(st.integers(1, 3).flatmap(lambda width: st.tuples(
           st.lists(CSV_CELLS, min_size=width, max_size=width),
           st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width),
                    min_size=1, max_size=5))),
       st.sampled_from([None, "seed=1"]))
@settings(max_examples=300, deadline=None)
def test_a_written_csv_reads_back(tmp_path_factory, table, comment):
    """What write_csv writes, parse_csv reads back cell for cell, trimmed:
    a first cell starting with '#' after blanks, in the header or in a
    row, is data, and the writer's own comment line is skipped."""
    header, rows = table
    text = stream_io.write_csv(header, rows, comment=comment)
    path = tmp_path_factory.getbasetemp() / "round-trip.csv"
    path.write_bytes(text.encode("utf-8"))
    for ds in (parse_csv(str(path)), parse_csv(io.StringIO(text))):
        assert [a.name for a in ds.schema] == [c.strip() for c in header]
        for attr, column, cells in zip(ds.schema, ds.columns, zip(*rows)):
            cells = [c.strip() for c in cells]
            if attr.is_nominal:
                assert [attr.values[v] for v in column.tolist()] == cells
            else:
                assert column.tolist() == list(map(float, cells))


def test_a_hash_cell_is_quoted_and_reads_back():
    text = stream_io.write_csv(("f", "label"), [("#1", "a"), ("2", "b"),
                                                ("3", "a")])
    assert text == 'f,label\n"#1",a\n2,b\n3,a\n'
    assert parse_csv(io.StringIO(text)).labels() == ["a", "b", "a"]
    assert parse_csv(io.StringIO('f,label\n"#1",a\n2,b\n')).labels() == \
        ["a", "b"]
    assert stream_io.write_csv((" #f",), [("\t#",), ("x#",)], comment="c") \
        == '# c\n" #f"\n"\t#"\nx#\n'


# any text but lone surrogates, with the characters that ARFF quoting and
# the line readers treat apart drawn often; '\x1c' and '\x85' are
# whitespace to str.strip() but no line end to a file's lines
ARFF_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.lists(st.sampled_from(["\r", "\n", "\0", "\ufeff", "#", "%", "?", "{",
                              "'", '"', "\\", ",", " ", "\x1c", "\x85", "A"]),
             max_size=4).map("".join))


@st.composite
def text_datasets(draw):
    """A dataset whose attribute names and nominal values are ARFF_TEXT:
    up to three numeric or nominal features, then the nominal class."""
    values = st.lists(ARFF_TEXT.filter(bool), min_size=1, max_size=3,
                      unique=True).map(tuple)
    schema = [AttributeSchema(draw(ARFF_TEXT), draw(values) if nominal
                              else None)
              for nominal in draw(st.lists(st.booleans(), max_size=3))
              + [True]]
    rows = [[draw(st.integers(0, len(a.values) - 1)) if a.is_nominal
             else draw(st.floats(allow_nan=False)) for a in schema]
            for _ in range(draw(st.integers(0, 5)))]
    return StreamDataset(schema, [Instance(tuple(row[:-1]), row[-1])
                                  for row in rows])


@given(text_datasets(), ARFF_TEXT)
@settings(max_examples=200, deadline=None)
def test_a_written_arff_reads_back(tmp_path_factory, ds, relation):
    text = to_arff(ds, relation)
    path = tmp_path_factory.getbasetemp() / "round-trip.arff"
    path.write_bytes(text.encode("utf-8"))
    for again in (parse_arff(str(path)), parse_arff(io.StringIO(text))):
        assert again == ds and repr(again) == repr(ds)
