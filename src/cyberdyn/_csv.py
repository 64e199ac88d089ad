"""The one CSV format of every output table: LF line ends, floats in
shortest round-trip form, ``None`` as an empty field, and standard quoting
of a field that holds a comma. Pass columns as Python scalars
(``ndarray.tolist()``): numpy scalars format more slowly."""

import csv


def write_csv(path, header: str, rows) -> None:
    """Write the comma-separated column names, then every row of ``rows``."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header.split(","))
        out.writerows(rows)
