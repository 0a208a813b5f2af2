#!/usr/bin/env python3
"""CI gates over the BENCHROW lines the benches print (bench_util.h emitRow).

  bench_gate.py overhead ON.txt OFF.txt
      A10 (bench_obs) and A14 (bench_telemetry): each kernel row of the
      default-on build stays within 5.0% of the GPD_OBS_DISABLED build
      (the 2% contract plus headroom for shared-runner jitter).
  bench_gate.py slice SLICE.txt
      A15 (bench_slice): the regular workload explores >= 10x fewer cuts
      sliced than unsliced; the non-regular workload explores equal cuts
      and pays < 8.0% wall-clock tax (the 3% contract plus headroom).

Exits non-zero (AssertionError) when a gate fails.
"""
import sys


def rows(path):
    out = []
    for line in open(path):
        parts = line.split()
        if parts[:1] == ['BENCHROW']:
            out.append(dict(p.split('=', 1) for p in parts[2:]))
    return out


def overhead(on_path, off_path):
    def kernels(path, mode):
        return {r['kernel']: float(r['ms'])
                for r in rows(path) if r['mode'] == mode}
    on, off = kernels(on_path, 'default-on'), kernels(off_path, 'disabled')
    assert on and on.keys() == off.keys(), (on, off)
    for kernel, ms in on.items():
        tax = (ms - off[kernel]) / off[kernel] * 100
        print(f'{kernel}: default-on {ms:.3f} ms vs disabled '
              f'{off[kernel]:.3f} ms ({tax:+.2f}%)')
        assert tax < 5.0, f'{kernel} overhead {tax:.2f}% out of bounds'


def slice_gate(path):
    runs = {(r['workload'], r['mode']): (float(r['ms']), int(r['cuts']))
            for r in rows(path)}
    assert len(runs) == 4, runs
    ms_s, cuts_s = runs[('regular', 'sliced')]
    ms_u, cuts_u = runs[('regular', 'unsliced')]
    red = cuts_u / cuts_s
    print(f'regular: sliced {cuts_s} cuts vs unsliced {cuts_u} '
          f'({red:.1f}x fewer; {ms_u / ms_s:.1f}x wall)')
    assert red >= 10.0, \
        f'slice-first cut reduction {red:.2f}x below the 10x contract'
    ms_s, cuts_s = runs[('nonregular', 'sliced')]
    ms_u, cuts_u = runs[('nonregular', 'unsliced')]
    assert cuts_s == cuts_u, \
        f'slicing-on explored extra cuts on non-regular work: {cuts_s} vs {cuts_u}'
    tax = (ms_s - ms_u) / ms_u * 100
    print(f'nonregular: slicing-on {ms_s:.3f} ms vs off {ms_u:.3f} ms '
          f'({tax:+.2f}%)')
    assert tax < 8.0, \
        f'slice pre-pass overhead {tax:.2f}% out of bounds on non-regular work'


if __name__ == '__main__':
    gates = {'overhead': overhead, 'slice': slice_gate}
    if len(sys.argv) < 2 or sys.argv[1] not in gates:
        sys.exit(__doc__)
    gates[sys.argv[1]](*sys.argv[2:])
