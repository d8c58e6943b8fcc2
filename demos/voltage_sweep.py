#!/usr/bin/env python3
"""Loading curve up to and past touchdown.

Sweeps the applied potential with warm starts.  Past pull-in the plate
lands on the insulating layer; the contact set then grows with voltage and
stays a single interval, while min(u) saturates at -H instead of diverging.
Points that cannot be certified to the stationarity tolerance are kept and
marked (each was still reached by a monotone energy descent).
"""

from memsplate import FieldGrid, PhysicalParams, make_context, minimize_Ek
from memsplate.errors import DescentFailed
from memsplate.verify import check_coincidence_interval

volts = [1.0, 3.0, 5.0, 6.0, 7.5, 9.0, 11.0]
warm = None
print(f"{'V':>5} {'status':>10} {'min_u':>10} {'E':>12} {'contact_measure':>16} {'interval':>9}")
for V in volts:
    ctx = make_context(PhysicalParams(V=V), n_elems=128, field_grid=FieldGrid(128, 64, 64))
    if warm is None:
        warm = ctx.zero_state()
    try:
        warm, rep = minimize_Ek(warm, max(ctx.constants.kappa0, 1.0), ctx)
        status = "certified"
    except DescentFailed as exc:
        warm, rep = exc.state, exc.report
        status = "local-min"
    coin = check_coincidence_interval(warm, ctx.p.H)
    print(f"{V:5.1f} {status:>10} {warm.values.min():10.5f} {rep.E:12.4f} "
          f"{coin.n_contact * ctx.plate.h:16.5f} {str(coin.is_interval):>9}")
