# kernels are plain numpy; pipebench/run.py reads this to stamp its environment
NUMBA_ACTIVE = False
