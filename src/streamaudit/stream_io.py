"""Stream dataset loading: ARFF (dense subset) and CSV.

A dataset is an attribute schema plus one column of values per attribute.
Row order is the time axis and is preserved exactly as in the source
file. The class attribute is the last attribute, in ARFF as in CSV: the
usual layout for stream-mining benchmarks, and the only one read.

Supported ARFF subset: @relation, @attribute with numeric/real/integer or
nominal {a,b,...} types, '%' comments, dense comma-separated @data rows.
Nominal values may be quoted with ' or " and use backslash escapes, as
Weka writes them. Sparse rows, string/date/relational attributes and
missing values ('?') are rejected with UnsupportedFeature.

The parsers work a column at a time: the ARFF data section is read in
blocks of BLOCK_LINES lines, each block split at once and converted column
by column; a block that fails to convert is re-read row by row, so the
error names the same line as a row-at-a-time parser would. A block with
no quote, '%' or '{' whose every line holds one comma fewer than the
schema has attributes is converted from its raw lines with no per-line
check; any other block is checked line by line first. The writer,
to_arff, makes the text of each BLOCK_LINES rows from one byte matrix,
with no Python work per value unless a numeric block needs repr.

A CSV is read BLOCK_LINES records at a time and each block is converted
to column parts as soon as it is read, so at most one block's cells are
alive at a time. A block without a '"' is split at commas like an ARFF
block; from the first block with one (or with anything else csv.reader
reads otherwise than a split: a NUL, a line break inside a line, a line
over csv.field_size_limit()), csv.reader reads the rest of the source, so
quoted fields, also those that span lines, read as csv.reader reads them.
Only the text of earlier blocks is kept, while a column that has parsed
as numbers so far may still turn nominal. The first record is the header
and the class is its last column. Errors come in the order of a
whole-file read: csv.reader's own, the first ragged or empty-cell record,
no data row (EmptyStream). The read that the CLI's label-only commands
use runs the same block loop but takes only each record's last cell: the
others are only checked for blanks, and no block text is kept.

A csv.reader error and input that is not UTF-8 are raised as ParseError.
"""

import csv
import functools
import io
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .errors import EmptyStream, ParseError, UnsupportedFeature

NUMERIC_TYPES = {"numeric", "real", "integer"}
REJECTED_TYPES = {"string", "date", "relational"}
BLOCK_LINES = 4096

# a quoted string with backslash escapes, as _quote writes it
_QUOTED = r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"'
# one comma-separated token: a quoted string and nothing but whitespace
# around it, or anything up to the next comma
_TOKEN = re.compile(rf"\s*(?:{_QUOTED})\s*(?=,|\Z)|[^,]*", re.DOTALL)
# an attribute name: a quoted string, or a bare word that starts with no quote
_NAME = re.compile(rf"{_QUOTED}|[^\s'\"]\S*", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"t": "\t", "n": "\n", "r": "\r"}
# the ARFF escape of each character _quote escapes
_ESCAPES = str.maketrans({"\\": "\\\\", "'": "\\'", "\n": "\\n",
                          "\r": "\\r"})
# a blank cell in a block's comma-joined text with a comma put at each end;
# \s is the whitespace str.strip() strips
_BLANK = re.compile(r",\s*,")
# to_arff pads its byte fields with a byte that no UTF-8 text holds
_PAD = 0xFF
_ZERO = ord("0")


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute: numeric (values is None) or nominal (a value list:
    not empty, no value empty, no value twice)."""

    name: str
    values: Optional[tuple] = None  # tuple of nominal values, or None

    def __post_init__(self):
        if self.values is not None:
            if not self.values or "" in self.values:
                raise ValueError("empty nominal value")
            if len(set(self.values)) != len(self.values):
                raise ValueError("duplicate nominal values")

    @property
    def is_nominal(self) -> bool:
        return self.values is not None


@dataclass(frozen=True)
class Instance:
    """One stream element: feature values plus a class-value index.

    Numeric features are floats; nominal features are indices into the
    attribute's value list. label is an index into the class attribute's
    value list.
    """

    features: tuple
    label: int


class StreamDataset:
    """A stream with its schema; row position is the time index.

    The data are held as columns, one per schema attribute and in schema
    order: columns[j] is a read-only numpy array, float64 for a numeric
    attribute and int32 indices into the value list for a nominal one. The
    class is the last attribute, at class_index = len(schema) - 1, and is
    nominal. StreamDataset(schema, instances) converts a sequence of
    Instance to columns once; instances is a view of the columns, built on
    first access.
    """

    def __init__(self, schema: Sequence, instances, class_index: int = -1):
        schema = tuple(schema)
        if not schema or class_index not in (-1, len(schema) - 1):
            raise ValueError(f"class index {class_index} is not the last of "
                             f"{len(schema)} attributes")
        rows = list(instances)
        width = len(schema) - 1
        if any(len(inst.features) != width for inst in rows):
            raise ValueError(f"every instance needs {width} feature values")
        columns = list(zip(*(inst.features for inst in rows))) or [()] * width
        columns.append([inst.label for inst in rows])
        self._set(schema, map(_array, schema, columns))

    @classmethod
    def _from_columns(cls, schema: Sequence, columns: list):
        """A dataset holding the given arrays, which nothing else may write."""
        ds = cls.__new__(cls)
        ds._set(tuple(schema), columns)
        return ds

    def _set(self, schema: tuple, columns):
        """Hold the columns, an iterable read once the class is checked."""
        if not schema[-1].is_nominal:
            raise ValueError(
                f"class attribute {schema[-1].name!r} is not nominal")
        columns = tuple(columns)
        for attr, col in zip(schema, columns):
            if attr.is_nominal and len(col) and \
                    not 0 <= col.min() <= col.max() < len(attr.values):
                raise ValueError(
                    f"value index out of range for attribute {attr.name!r}")
            col.flags.writeable = False
        vars(self).update(schema=schema, columns=columns,
                          class_index=len(schema) - 1)

    def __reduce__(self):  # copies and pickles get read-only columns too
        return StreamDataset._from_columns, (self.schema, list(self.columns))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to StreamDataset.{name}")

    def __eq__(self, other):
        if not isinstance(other, StreamDataset):
            return NotImplemented
        return (self.schema == other.schema
                and all(map(np.array_equal, self.columns, other.columns)))

    def __hash__(self):
        return hash((self.schema, self.n_instances))

    def __repr__(self):
        columns = tuple(col.tolist() for col in self.columns)
        return (f"StreamDataset(schema={self.schema!r}, columns={columns!r}, "
                f"class_index={self.class_index!r})")

    @functools.cached_property
    def instances(self) -> tuple:
        """The rows as a tuple of Instance holding Python floats and ints."""
        return tuple(itertools.starmap(Instance, self._rows()))

    def _rows(self, first: int = 0, stop: Optional[int] = None):
        """(features, class code) pairs of Python values of rows [first,
        stop), in stream order, made BLOCK_LINES rows at a time."""
        stop = self.n_instances if stop is None else stop
        for start in range(first, stop, BLOCK_LINES):
            end = min(start + BLOCK_LINES, stop)
            columns = [col[start:end].tolist() for col in self.columns]
            codes = columns.pop()
            yield from zip(zip(*columns) if columns else itertools.repeat(()),
                           codes)

    @property
    def n_instances(self) -> int:
        return len(self.columns[self.class_index])

    @property
    def n_features(self) -> int:
        return len(self.schema) - 1

    @property
    def class_attribute(self) -> AttributeSchema:
        return self.schema[self.class_index]

    @property
    def class_values(self) -> tuple:
        return self.class_attribute.values

    def labels(self) -> list:
        """Class values in stream order, as the original nominal strings."""
        return np.array(self.class_values, dtype=object).take(
            self.columns[self.class_index]).tolist()


def _utf8(read):
    """read of a text stream, or of a str source taken as a path and opened
    as UTF-8 with newline="" (a line ends at '\n', '\r\n' or '\r', kept),
    either way without a leading byte-order mark; input that does not
    decode is a ParseError naming the source."""
    @functools.wraps(read)
    def wrapper(source, *args, **kwargs):
        if isinstance(source, str):
            with open(source, encoding="utf-8", newline="") as fh:
                return wrapper(fh, *args, **kwargs)
        try:
            lines = iter(source)
            try:
                start = source.tell()
            except (AttributeError, OSError):  # a pipe: line 1 loses the mark
                lines = itertools.chain([line.removeprefix("\ufeff") for line
                                         in itertools.islice(lines, 1)], lines)
            else:  # a seekable stream is moved past it
                if source.read(1) != "\ufeff":
                    source.seek(start)
            return read(lines, *args, **kwargs)
        except UnicodeDecodeError as exc:
            name = getattr(source, "name", "input")
            raise ParseError(f"{name} is not {exc.encoding.upper()} text"
                             ) from None
    return wrapper


def _concatenate(parts: list) -> list:
    """One array per column from its list of parts; each list is emptied
    once its column is built, so at most one column is held twice."""
    columns = []
    for column in parts:
        columns.append(np.concatenate(column))
        column.clear()
    return columns


def _dtype(attr: AttributeSchema):
    return np.int32 if attr.is_nominal else np.float64


def _array(attr: AttributeSchema, values: Sequence) -> np.ndarray:
    """A column from Python values; nominal values must be int indices."""
    n = len(values)
    if attr.is_nominal:
        values = map(operator.index, values)
    return np.fromiter(values, _dtype(attr), n)


def _split_row(text: str) -> list:
    """Split at the commas outside quotes; tokens keep their quotes."""
    tokens = []
    pos = -1
    while pos < len(text):
        match = _TOKEN.match(text, pos + 1)
        tokens.append(match.group())
        pos = match.end()
    return tokens


def _unquote(token: str) -> str:
    """Strip one pair of enclosing quotes and undo backslash escapes."""
    if token.startswith(("'", '"')) and token.endswith(token[0]) and len(token) > 1:
        return _ESCAPE.sub(lambda m: _ESCAPED.get(m.group(1), m.group(1)),
                           token[1:-1])
    return token


def _quote(value: str) -> str:
    """ARFF spelling of a nominal value or an attribute name: quoted and
    escaped when it is empty or '?', holds a comma, whitespace, a quote or
    a backslash, or starts with '%' or '{'; otherwise the value itself. A
    line break is escaped too, so the quoted value stays on one line."""
    if value in ("", "?") or value.startswith(("%", "{")) or \
            any(c in ",'\"\\" or c.isspace() for c in value):
        return "'" + value.translate(_ESCAPES) + "'"
    return value


def _attr_value(attr: AttributeSchema, token: str, line_no: int):
    token = token.strip()
    if token == "?":
        raise UnsupportedFeature("missing value '?' not supported", line=line_no)
    if token == "":
        raise UnsupportedFeature("empty cell", line=line_no)
    if attr.is_nominal:
        token = _unquote(token)
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


def _parse_attribute_line(rest: str, line_no: int) -> AttributeSchema:
    rest = rest.strip()
    if not rest:
        raise ParseError("@attribute without a name", line=line_no)
    match = _NAME.match(rest)
    if match is None:
        raise ParseError("unterminated quoted attribute name", line=line_no)
    name = _unquote(match.group())
    type_part = rest[match.end():].strip()
    if not type_part:
        raise ParseError(f"attribute {name!r} has no type", line=line_no)
    if type_part.startswith("{"):
        if not type_part.endswith("}"):
            raise ParseError("unterminated nominal value list", line=line_no)
        values = [_unquote(tok.strip()) for tok in _split_row(type_part[1:-1])]
        try:
            return AttributeSchema(name, tuple(values))
        except ValueError as exc:
            raise ParseError(str(exc), line=line_no) from None
    kind = type_part.split()[0].lower()
    if kind in NUMERIC_TYPES:
        return AttributeSchema(name, None)
    if kind in REJECTED_TYPES:
        raise UnsupportedFeature(f"attribute type {kind!r} not supported",
                                 line=line_no)
    raise ParseError(f"unknown attribute type {type_part!r}", line=line_no)


def _convert_column(attr: AttributeSchema, tokens: list) -> np.ndarray:
    if attr.is_nominal:
        codes = {t: _attr_value(attr, t, None) for t in dict.fromkeys(tokens)}
        values = map(codes.__getitem__, tokens)
    else:
        values = map(float, tokens)
    return np.fromiter(values, _dtype(attr), len(tokens))


def _convert_rows(schema: list, rows: list, line_nos: list) -> list:
    """Row-at-a-time conversion; raises on the first bad line."""
    columns = [[] for _ in schema]
    for line_no, row in zip(line_nos, rows):
        for col, attr, token in zip(columns, schema, _split_row(row)):
            col.append(_attr_value(attr, token, line_no))
    return list(map(_array, schema, columns))


def _convert_block(schema: list, rows: list, line_nos: list,
                   quoted: bool) -> list:
    if not quoted:
        m = len(schema)
        flat = ",".join(rows).split(",")
        try:
            return [_convert_column(attr, flat[j::m])
                    for j, attr in enumerate(schema)]
        except (ValueError, ParseError, UnsupportedFeature):
            pass  # the row-wise pass names the first bad line
    return _convert_rows(schema, rows, line_nos)


@_utf8
def parse_arff(source: Union[str, TextIO]) -> StreamDataset:
    """Parse a dense-format ARFF text stream into a StreamDataset.

    source may be a file path or an open text stream. The class is the
    last attribute and must be nominal. Nominal value matching is
    case-sensitive, whitespace-trimmed.

    Errors are raised in this order: the first malformed header or data
    line (arity, sparse row) in the whole file, then a numeric last
    attribute, then the first value that does not convert.
    """
    lines = iter(source)
    schema = []
    saw_relation = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
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
            break
        raise ParseError(f"unexpected header line {line!r}", line=line_no)
    else:
        if not saw_relation and not schema:
            raise ParseError("no @relation/@attribute header found")
        raise ParseError("no @data section found")

    m = len(schema)
    failure = None  # first conversion error, raised once the file is checked
    parts = [[] for _ in schema]  # per attribute, one array per block
    while True:
        block = list(itertools.islice(lines, BLOCK_LINES))
        if not block:
            break
        text = "".join(block)
        quoted = "'" in text or '"' in text
        if m > 1 and not quoted and "%" not in text and "{" not in text \
                and set(map(str.count, block, itertools.repeat(","))) \
                == {m - 1}:
            # no line is blank, a comment or sparse, and each has m values:
            # the raw lines convert as they are, since float() and
            # _attr_value strip a value's whitespace and the line end
            rows = block
            line_nos = range(line_no + 1, line_no + 1 + len(block))
            line_no += len(block)
        else:
            rows, line_nos = [], []
            for line_no, raw in enumerate(block, start=line_no + 1):
                line = raw.strip()
                if not line or line[0] == "%":
                    continue
                if line[0] == "{":
                    raise UnsupportedFeature("sparse-format row",
                                             line=line_no)
                n_values = len(_split_row(line)) if quoted \
                    else line.count(",") + 1
                if n_values != m:
                    raise ParseError(f"row has {n_values} values, schema "
                                     f"has {m} attributes", line=line_no)
                rows.append(line)
                line_nos.append(line_no)
        if failure is None and rows:
            try:
                for column, part in zip(parts, _convert_block(
                        schema, rows, line_nos, quoted)):
                    column.append(part)
            except (ParseError, UnsupportedFeature) as exc:
                failure = exc

    columns = _concatenate(parts) if parts[0] \
        else [np.empty(0, _dtype(attr)) for attr in schema]
    try:  # the class attribute, checked once the structure is
        ds = StreamDataset._from_columns(schema, columns)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if failure is not None:
        raise failure
    return ds


def _csv_blocks(source):
    """(record numbers, records, split) for each BLOCK_LINES records of
    the source, without blank records and '#' comments; numbers count
    every record from 1, as csv.reader does. While no block has held what
    csv.reader reads otherwise than a split at commas (see the module
    docstring), a record is a line without its line end (split is True);
    from the first block that does, csv.reader reads the rest and a record
    is its list of cells."""
    def kept(records, keep):
        nos = [no for no, rec in enumerate(records, start) if keep(rec)]
        return nos, [records[no - start] for no in nos]

    lines = iter(source)
    start = 1
    while True:
        block = list(itertools.islice(lines, BLOCK_LINES))
        if not block:
            return
        records = list(map(str.rstrip, block, itertools.repeat("\r\n")))
        text = "\n".join(records)
        if '"' in text or "\0" in text or "\r" in text \
                or text.count("\n") != len(records) - 1 \
                or max(map(len, records)) > csv.field_size_limit():
            break
        filtered = "" in records or "#" in text
        del block, text  # the records are the block's one copy as it yields
        yield (*kept(records, _data_line), True) if filtered \
            else (range(start, start + len(records)), records, True)
        start += len(records)
    reader = _csv_records(itertools.chain(block, lines), start)
    while True:
        records = list(itertools.islice(reader, BLOCK_LINES))
        if not records:
            return
        yield (*kept(records, bool), False)
        start += len(records)


def _data_line(line: str) -> bool:
    """Whether a CSV record's first line holds data: it is not blank and
    its first non-blank character is not an unquoted '#' (a comment)."""
    return bool(line) and not line.lstrip().startswith("#")


def _csv_records(lines, first: int):
    """csv.reader's records of the lines, numbered from first, a comment
    (decided on the record's first raw line) as a blank record; its errors
    are raised as ParseError naming the record."""
    read = []  # the raw lines of the record being read

    def source():
        for line in lines:
            read.append(line)
            yield line

    no = first - 1
    try:
        for no, record in enumerate(csv.reader(source()), first):
            yield record if _data_line(read[0]) else []
            read.clear()
    except csv.Error as exc:
        raise ParseError(str(exc), line=no + 1) from None


def _cells(block) -> list:
    """A block's cells, row after row: block is a list of cells or the
    comma-joined text of its rows."""
    return block.split(",") if isinstance(block, str) else block


def _floats(tokens: list) -> Optional[np.ndarray]:
    """float64 values of the tokens, or None if one is not a number."""
    # float() ignores less whitespace than str.strip(): not '\x1c'-'\x1f'
    for cells in (tokens, map(str.strip, tokens)):
        try:
            return np.fromiter(map(float, cells), np.float64, len(tokens))
        except ValueError:
            pass
    return None


def _codes(values: dict, tokens: list) -> Optional[np.ndarray]:
    """int32 codes of the stripped tokens, adding new values to values (a
    value -> code dict) in first-occurrence order; None if one is blank."""
    codes = {}
    for token in dict.fromkeys(tokens):
        value = token.strip()
        if not value:
            return None
        codes[token] = values.setdefault(value, len(values))
    return np.fromiter(map(codes.__getitem__, tokens), np.int32, len(tokens))


class _CsvColumns:
    """A CSV's columns, converted a block at a time. A column is float64
    while every cell so far is a number; after that, and the class column
    (the last) from the start, it is int32 codes of its values by first
    occurrence. The blocks are kept while a column may still turn nominal,
    because it then recodes its earlier cells from their text: '3' and
    '3.0' are two nominal values."""

    def __init__(self, n_cols: int):
        # per column None (numeric so far) or its value -> code dict
        self.values = [None] * (n_cols - 1) + [{}]
        self.parts = [[] for _ in range(n_cols)]
        self.blocks = []

    def add(self, block) -> bool:
        """Convert one block (see _cells); False if it holds a blank cell."""
        m = len(self.values)
        cells = _cells(block)
        for j, values in enumerate(self.values):
            tokens = cells[j::m]
            if values is None:
                part = _floats(tokens)
                if part is None:  # not all numbers: the column turns nominal
                    self.values[j] = values = {}
                    self.parts[j] = [_codes(values, _cells(old)[j::m])
                                     for old in self.blocks]
            if values is not None:
                part = _codes(values, tokens)
                if part is None:
                    return False
            self.parts[j].append(part)
        if None in self.values:
            self.blocks.append(block)
        else:
            self.blocks.clear()
        return True

    def dataset(self, header: list) -> StreamDataset:
        self.blocks.clear()
        schema = [AttributeSchema(name, None if values is None
                                  else tuple(values))
                  for name, values in zip(header, self.values)]
        return StreamDataset._from_columns(schema, _concatenate(self.parts))


def _has_blank(block) -> bool:
    """Whether a block (see _cells) holds a cell that str.strip() empties."""
    if isinstance(block, str):
        return _BLANK.search(f",{block},") is not None
    return not all(map(str.strip, block))


def _first_bad_record(nos, records, split: bool, n_cols: int):
    """The error for the first ragged or empty-cell record."""
    for no, cells in zip(nos, records):
        cells = cells.split(",") if split else cells
        if len(cells) != n_cols:
            return ParseError(f"row has {len(cells)} cells, expected {n_cols}",
                              line=no)
        if not all(map(str.strip, cells)):
            return UnsupportedFeature("empty cell", line=no)


def parse_csv(source: Union[str, TextIO]) -> StreamDataset:
    """Parse a rectangular CSV into a StreamDataset.

    The first record is the header. The class is the last column and is
    always nominal, value order by first occurrence. Other columns are
    numeric when every value parses as a number, else nominal. Cells are
    whitespace-trimmed; blank records and comments, records whose first
    line starts with an unquoted '#' after any blanks, are skipped, so a
    quoted '"#1"' is data.

    The source is read and converted BLOCK_LINES records at a time, split
    at commas until a block holds a '"' and read by csv.reader from there
    on (see the module docstring). Errors come in this order: csv.reader's
    own (a ParseError naming the record), the first ragged or empty-cell
    record in the file, EmptyStream for no data row. Line numbers count
    records, as csv.reader does. Input that is not UTF-8 is a ParseError
    too.
    """
    return _read_csv(source, class_only=False)[0]


@_utf8
def _read_csv(source: Union[str, TextIO], class_only: bool) -> tuple:
    """parse_csv's dataset and the header's feature count. With class_only
    the dataset holds the class attribute alone: only each record's last
    cell is taken, the others are only checked for blanks, and the errors
    are parse_csv's, in its order."""
    header = None
    failure = None  # the first ragged or empty-cell record
    for nos, records, split in _csv_blocks(source):
        if header is None and records:
            first = records[0].split(",") if split else records[0]
            header = [cell.strip() for cell in first]
            n_cols = len(header)
            nos, records = nos[1:], records[1:]
            columns = _CsvColumns(1 if class_only else n_cols)
        if failure is not None or not records:
            continue
        if split:
            bad = set(map(str.count, records,
                          itertools.repeat(","))) != {n_cols - 1}
            block = ",".join(records)
        else:
            bad = set(map(len, records)) != {n_cols}
            block = [cell for cells in records for cell in cells]
        if class_only and not bad:
            bad = _has_blank(block)
            block = [line.rpartition(",")[2] for line in records] if split \
                else [cells[-1] for cells in records]
        if bad or not columns.add(block):
            failure = _first_bad_record(nos, records, split, n_cols)

    if failure is not None:
        raise failure
    if header is None:
        raise ParseError("empty CSV input")
    if not columns.parts[-1]:
        raise EmptyStream()
    return columns.dataset(header[-1:] if class_only else header), n_cols - 1


def _byte_rows(texts: list) -> np.ndarray:
    """The UTF-8 bytes of the strings as the rows of a uint8 matrix, each
    padded with _PAD to the longest; lone surrogates pass through."""
    raw = [text.encode("utf-8", "surrogatepass") for text in texts]
    width = max(map(len, raw))
    return np.frombuffer(b"".join(r.ljust(width, bytes((_PAD,))) for r in raw),
                         np.uint8).reshape(len(raw), width)


def _numeric_field(x: np.ndarray) -> np.ndarray:
    """repr of each value of x as the rows of a _PAD-padded uint8 matrix,
    made from the values' decimal digits where to_arff says, else by repr.
    1e-4 is where repr's fixed notation starts."""
    a = np.abs(x)
    with np.errstate(invalid="ignore", over="ignore"):
        # NaN fails the range test, and ±inf the digit count in _grid
        if ((a >= 1e-4) | (a == 0)).all():
            for k in range(16):
                # the first values rule out most k at a small cost
                if _grid(a[:64], k) is not None and \
                        (digits := _grid(a, k)) is not None:
                    return _decimal_field(np.signbit(x), digits, k)
    return _byte_rows(list(map(repr, x.tolist())))


def _grid(a: np.ndarray, k: int) -> Optional[np.ndarray]:
    """The int64 digits rint(a * 10**k) if each is below 10**15 and, divided
    by 10**k, gives its value of a back; else None."""
    scale = 10.0 ** k
    digits = np.rint(a * scale)
    if ((digits < 1e15) & (digits / scale == a)).all():
        return digits.astype(np.int64)
    return None


def _decimal_field(negative: np.ndarray, digits: np.ndarray, k: int
                   ) -> np.ndarray:
    """The rows '-'?, the integer part without leading zeros, '.', and the
    k fraction digits without trailing zeros (at least one), of the values
    digits / 10**k (digits: int64 below 10**15), padded with _PAD.

    This is repr's string when digits / 10**k, divided as doubles, gives the
    value back: 10**k and digits are exact doubles, so the quotient is the
    double nearest that decimal, as float() of its string is. A double is
    the nearest of at most one decimal of 15 or fewer significant digits
    (DBL_DIG), so no shorter string reads back to it, and this one is repr's.
    """
    width = len(str(int(digits.max()) // 10 ** k))  # integer digits, at most
    signed = bool(negative.any())
    dot = signed + width
    # one row per place, so that each place is written as one contiguous run
    text = np.empty((dot + 1 + max(k, 1), len(digits)), np.uint8)
    if signed:
        text[0] = np.where(negative, ord("-"), _PAD)
    text[dot] = ord(".")
    text[dot + 1] = _ZERO  # the fraction of k = 0
    # from the last digit place up: a fraction digit after the first is a
    # pad while it and every later one are 0, and an integer digit before
    # the units while it and every earlier one are
    trailing = np.ones(len(digits), bool)
    for place in range(dot + k, dot, -1):
        rest = digits // 10
        text[place] = digits - rest * 10
        trailing &= text[place] == 0
        text[place] += _ZERO
        if place > dot + 1:
            np.copyto(text[place], _PAD, where=trailing)
        digits = rest
    for place in range(dot - 1, signed - 1, -1):
        rest = digits // 10
        text[place] = digits - rest * 10
        text[place] += _ZERO
        if place < dot - 1:
            np.copyto(text[place], _PAD, where=digits == 0)
        digits = rest
    return text.T


def to_arff(ds: StreamDataset, relation: str = "stream") -> str:
    """Serialize a dataset back to dense ARFF; round-trips via parse_arff.

    The relation, attribute names and nominal values are written as _quote
    spells them, and numbers as repr does. Each BLOCK_LINES rows become one
    uint8 matrix, a field per column padded with a byte no UTF-8 text
    holds, and its text is the matrix's bytes without that byte. A nominal
    field is gathered from a table of the attribute's quoted values. A
    numeric block whose values are all 0, -0.0 or at least 1e-4 and lie on
    one decimal grid of at most 15 places with fewer than 16 digits is
    written from those integer digits (see _decimal_field); any other
    numeric block, with a NaN, an infinity or a value off every such grid,
    by repr of each value.
    """
    out = io.StringIO()
    out.write(f"@relation {_quote(relation)}\n")
    for attr in ds.schema:
        if attr.is_nominal:
            kind = "{" + ",".join(map(_quote, attr.values)) + "}"
        else:
            kind = "numeric"
        out.write(f"@attribute {_quote(attr.name)} {kind}\n")
    out.write("@data\n")
    tables = [_byte_rows(list(map(_quote, attr.values)))
              if attr.is_nominal else None for attr in ds.schema]
    for start in range(0, ds.n_instances, BLOCK_LINES):
        fields = [_numeric_field(col[start:start + BLOCK_LINES])
                  if table is None
                  else table.take(col[start:start + BLOCK_LINES], axis=0)
                  for table, col in zip(tables, ds.columns)]
        comma = np.full((len(fields[0]), 1), ord(","), np.uint8)
        block = np.concatenate([part for field in fields
                                for part in (field, comma)], axis=1)
        block[:, -1] = ord("\n")
        out.write(block.tobytes().replace(bytes((_PAD,)), b"").decode(
            "utf-8", "surrogatepass"))
    return out.getvalue()


def write_csv(header: Sequence, rows, comment: Optional[str] = None) -> str:
    """CSV text with '\\n' line ends: an optional '# comment' line (which
    parse_csv skips), the header, then the rows. Cells holding a comma, a
    double quote or a line break ('\\n' or '\\r') are quoted, and so is a
    record's first cell whose first non-blank character is '#', which
    parse_csv would take for a comment; floats are written by repr.
    """
    out = io.StringIO()
    if comment is not None:
        out.write(f"# {comment}\n")
    start = out.tell()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = out.getvalue()
    if text.find("\r", start) >= 0 or text.find("#", start) >= 0:  # rare
        text = text[:start] + _UNSAFE_CELL.sub(_quote_cell, text[start:])
    return text


# csv.writer quotes a cell that holds its line terminator, '\n', but can
# leave unquoted one holding a bare '\r', which every reader takes for a
# line end, and a record's first cell starting with '#' after blanks,
# which parse_csv takes for a comment. Each quoted cell matches whole, so a
# match that does not start with '"' is such a cell; it holds no '"' to
# double.
_UNSAFE_CELL = re.compile(r'"[^"]*(?:""[^"]*)*"|[^,"\n]*\r[^,"\n]*'
                          r'|^[^\S\n]*#[^,"\n]*', re.MULTILINE)


def _quote_cell(match) -> str:
    cell = match[0]
    return cell if cell.startswith('"') else f'"{cell}"'


def dataset_summary(ds: StreamDataset) -> dict:
    """Exact instance/feature/class counts; EmptyStream if it has no rows."""
    if not ds.n_instances:
        raise EmptyStream()
    counts = np.bincount(ds.columns[ds.class_index],
                         minlength=len(ds.class_values))
    return {
        "n_instances": ds.n_instances,
        "n_features": ds.n_features,
        "class_values": list(ds.class_values),
        "class_counts": dict(zip(ds.class_values, counts.tolist())),
    }
