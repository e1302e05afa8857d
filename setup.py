from setuptools import setup, Extension

# The compiled counting kernel is optional: without a working C compiler the
# build skips it and the package counts with the pure-Python kernel.
setup(ext_modules=[
    Extension("motivic.count._ckernel", ["src/motivic/count/_ckernel.c"],
              optional=True),
])
