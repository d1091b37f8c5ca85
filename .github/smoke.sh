#!/usr/bin/env bash
# Every command of the installed `cavlab` console script, once, with the
# exit code each must give.  Run from the root of a checkout after
# `pip install`:
#
#     bash .github/smoke.sh WORK_DIR
#
# Tables, runs and configs are written under WORK_DIR.
set -euo pipefail
unset PYTHONPATH
work=$1

cavlab basis-check
for kind in regular singular; do
  cavlab kernel build --kind "$kind" --out "$work/$kind.cavk"
  cavlab kernel verify "$work/$kind.cavk"
done
# a copy of the regular table with a NaN as its last value, and one whose
# header nu_star (bytes 15-22) is not its last nu node: each is a
# malformed table, a usage error (exit 2)
python3 - "$work/regular.cavk" "$work" <<'PY'
import struct, sys
table, work = sys.argv[1:]
with open(table, "rb") as fh:
    data = fh.read()
for name, offset, value in (("nan-last", len(data) - 8, float("nan")),
                            ("nu-star-0.2", 15, 0.2)):
    copy = bytearray(data)
    struct.pack_into("<d", copy, offset, value)
    with open(f"{work}/{name}.cavk", "wb") as fh:
        fh.write(copy)
PY
for bad in nan-last nu-star-0.2; do
  status=0
  cavlab kernel verify "$work/$bad.cavk" || status=$?
  test "$status" -eq 2
done
# a well-formed copy of the regular table with its alpha1 column 1e-4 off
# breaks the generator equation: a failed check (exit 1)
python3 - "$work/regular.cavk" "$work/alpha1-off.cavk" <<'PY'
import dataclasses, sys
from cavlab.kernelengine import KernelTransform
tr = KernelTransform.load(sys.argv[1])
cols = {**tr.coeffs.columns, "alpha1": tr.coeffs.columns["alpha1"] * 1.0001}
KernelTransform(tr.kind, dataclasses.replace(tr.coeffs, columns=cols),
                tr.xi_grid, tr.ghat, tr.ghat_nu, tr.ghat_xi,
                tr.ghat_nuxi).save(sys.argv[2])
PY
status=0
cavlab kernel verify "$work/alpha1-off.cavk" > /dev/null || status=$?
test "$status" -eq 1
# generator derivatives, Loewner-Morawetz pairs and admissibility margins
cavlab entropy check --out "$work/entropy_margins.csv"
# a nu_star below the calibration point nu = 1e-7 is a usage error
# (exit 2), refused before the build
status=0
cavlab kernel build --kind regular --nu-star 1e-8 \
  --out "$work/low.cavk" || status=$?
test "$status" -eq 2
# the default check is a pre-asymptotic case that fails six gates: it
# must exit 1 (a failed check), not 2 or 3
cd "$work"
status=0
cavlab check || status=$?
test "$status" -eq 1
# the stored run reads back
cavlab report run
# a non-finite length is a configuration error (exit 2), not an internal
# error
printf 'geometry.h_mesh = nan\noutput.dir = nan-run\n' > nan.cfg
status=0
cavlab check --config nan.cfg || status=$?
test "$status" -eq 2
# so is an infinite viscosity
printf 'solver.epsilons = inf\noutput.dir = inf-run\n' > inf.cfg
status=0
cavlab check --config inf.cfg || status=$?
test "$status" -eq 2
test ! -e inf-run
# the viscous commands on one viscosity: each must exit 0, and the swept
# run reads back
cavlab tables --out chart.csv
printf 'solver.epsilons = 0.2\noutput.dir = one-eps\n' > one-eps.cfg
cavlab solve --config one-eps.cfg
# only sweep writes plotdata/
test ! -e one-eps/plotdata
# solve applies the sweep's resolution check: eps = h/5 at the default
# h = 1/32 is a usage error (exit 2)
status=0
cavlab solve --config one-eps.cfg --epsilon 0.00625 || status=$?
test "$status" -eq 2
cavlab sweep --config one-eps.cfg
cavlab report one-eps
# a directory where a kernel table is read is a usage error
status=0
cavlab kernel verify "$work" || status=$?
test "$status" -eq 2
