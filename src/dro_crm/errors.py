"""Semantic exceptions shared across the package, and the text-file reader
that turns bytes which are not UTF-8 into one of them."""


class ContractViolation(ValueError):
    """An argument violated a documented precondition or invariant."""


class DataFormatError(ValueError):
    """An input file could not be parsed; message carries the line number."""


def utf8_lines(path):
    """(line number, line) of a UTF-8 text file, without a leading byte-order
    mark; other bytes are a DataFormatError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
