"""The OpenBLAS kernel a test process runs, for the tests whose bytes depend on it."""
import ctypes

# The kernels under which README promises that the class-major scores have
# the bits of the row-major product.
ROW_MAJOR_KERNELS = ("SkylakeX", "Haswell", "Sandybridge")

_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def blas_corename() -> str | None:
    """The OpenBLAS kernel this process runs, or None if no loaded library reports one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None
