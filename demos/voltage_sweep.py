#!/usr/bin/env python3
"""Loading curve up to and past touchdown.

Sweeps the applied potential with warm starts.  Past pull-in the plate
lands on the insulating layer; the contact set then grows with voltage and
stays a single interval, while min(u) saturates at -H instead of diverging.
Every point goes through the continuation pipeline, which prints its status
and its verdict; the demo exits 1 unless every point is certified.
"""

import sys

from memsplate import FieldGrid, PhysicalParams, continuation_pipeline, make_context
from memsplate.verify import check_coincidence_interval

volts = [1.0, 3.0, 5.0, 6.0, 7.5, 9.0, 11.0]
warm = None
all_certified = True
print(f"{'V':>5} {'status':>15} {'certified':>9} {'min_u':>10} {'E':>12} {'contact_measure':>16} {'interval':>9}")
for V in volts:
    ctx = make_context(PhysicalParams(V=V), n_elems=128, field_grid=FieldGrid(128, 64, 64))
    warm, rep, cert = continuation_pipeline(ctx, warm)
    all_certified = all_certified and cert["certified"]
    coin = check_coincidence_interval(warm, ctx.p.H)
    print(f"{V:5.1f} {cert['status']:>15} {str(cert['certified']):>9} {warm.values.min():10.5f} {rep.E:12.4f} "
          f"{coin.n_contact * ctx.plate.h:16.5f} {str(coin.is_interval):>9}")
sys.exit(0 if all_certified else 1)
