"""Exact arrays on disk: the one ``.npz`` writer and reader.

Cleaned trips (`preprocess.write_clean`/`read_clean`) and model files
(`models.io`) store their arrays through these two functions: one stored
``NAME.npy`` member per array, C order and little-endian, the bytes
``np.savez`` writes, so every bit is kept.
"""
from __future__ import annotations

import zipfile

import numpy as np


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write ARRAYS, by name, as the archive PATH. Each member is its
    ``.npy`` header, then the array's bytes from its own buffer: a C-order
    array is not copied (``np.savez`` copies up to 16 MiB at a time)."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, arr in arrays.items():
            arr = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(arr))
                member.write(arr.reshape(-1).view(np.uint8))


def read_arrays(path, names, dtypes: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The read-only arrays of the archive PATH, by name.

    Nothing in it is trusted: it must be a zip archive of exactly the
    members NAMES, no pickled object is loaded, each member must be an
    array of one of DTYPES (such as "<f8"), byte order included, and no
    float may be NaN or infinite. Raises ValueError. Callers check shapes.
    """
    if not zipfile.is_zipfile(path):  # np.load would take the file for a .npy or a pickle
        raise ValueError("not an .npz archive")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if sorted(archive.files) != sorted(names):
                raise ValueError(f"expected arrays {sorted(names)}, got {sorted(archive.files)}")
            arrays = {name: archive[name] for name in names}
    except (OSError, EOFError, zipfile.BadZipFile) as err:
        raise ValueError(f"unreadable .npz archive: {err}") from None
    dtypes = [np.dtype(code) for code in dtypes]
    for name, arr in arrays.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype in dtypes):  # a member that is not an .npy is bytes
            got = getattr(arr, "dtype", type(arr).__name__)
            raise ValueError(f"array {name} must be {' or '.join(map(str, dtypes))}, got {got}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError(f"array {name} holds a NaN or infinite value")
        arr.setflags(write=False)
    return arrays
