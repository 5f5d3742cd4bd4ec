"""Tests of perfbench/checks.py: every check passes on sound outputs and
fails on a doctored one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import copy
import math
import unittest

import checks


class Exp05Rows(unittest.TestCase):
    ROWS = [{"n": 10, "set": "Gbar", "k": 1, "pairs": 6, "slack": 0.001,
             "sigma4": 0.065, "merge": 0.11},
            {"n": 10, "set": "Sbar", "k": 2, "pairs": 5, "slack": -0.02,
             "sigma4": 0.069, "merge": 0.01}]

    def test_sound_rows_pass(self):
        self.assertEqual(checks.check_exp05_rows(self.ROWS), [])

    def test_slack_beyond_allowance_fails(self):
        rows = copy.deepcopy(self.ROWS)
        rows[1]["slack"] = 0.07
        self.assertTrue(checks.check_exp05_rows(rows))

    def test_no_rows_fails(self):
        self.assertTrue(checks.check_exp05_rows([]))


class Exp05Replay(unittest.TestCase):
    # n = 4: 1/C(4,2) = 1/6.  Two Gbar pairs and one Sbar pair.
    REPLAY = {"n": 4, "pairs": [
        {"set": "Gbar", "k": 1, "d": [0, 1, 2, 1]},
        {"set": "Gbar", "k": 1, "d": [0, 0, 2, 2]},
        {"set": "Sbar", "k": 2, "d": [1, 2, 2, 3]}]}

    def rows(self):
        rows = []
        for (sset, k), r in checks.exp05_rows_from_replay(self.REPLAY).items():
            w = r["worst"][0]
            rows.append({"n": 4, "set": sset, "k": k, "pairs": r["pairs"],
                         "slack": round(w["slack"], 4),
                         "sigma4": round(w["sigma4"], 4),
                         "merge": round(w["merge"], 4)})
        return rows

    def test_rebuilt_rows(self):
        rebuilt = checks.exp05_rows_from_replay(self.REPLAY)
        gbar = rebuilt[("Gbar", 1)]
        self.assertEqual(gbar["pairs"], 2)
        # Equal means: both pairs stay candidates, the first one first.
        self.assertEqual(len(gbar["worst"]), 2)
        self.assertAlmostEqual(gbar["worst"][0]["slack"], 1 - 1 + 1 / 6)
        self.assertEqual(gbar["worst"][1]["merge"], 0.5)

    def test_printed_rows_pass(self):
        self.assertEqual(checks.check_exp05_replay(self.rows(), self.REPLAY), [])

    def test_distance_off_by_one_fails(self):
        replay = copy.deepcopy(self.REPLAY)
        replay["pairs"][2]["d"][0] += 1
        self.assertTrue(checks.check_exp05_replay(self.rows(), replay))

    def test_missing_row_fails(self):
        self.assertTrue(checks.check_exp05_replay(self.rows()[:1], self.REPLAY))


class OrientSamples(unittest.TestCase):
    SAMPLES = [{"k": 1, "equal": False, "d_xy": 2, "d_yx": 2, "d_xx": 0,
                "own": 2},
               {"k": 1, "equal": True, "d_xy": 0, "d_yx": 0, "d_xx": 0,
                "own": 0}]

    def test_sound_samples_pass(self):
        self.assertEqual(checks.check_orient_samples(self.SAMPLES), [])

    def test_distance_off_by_one_fails(self):
        samples = copy.deepcopy(self.SAMPLES)
        samples[0]["d_xy"] += 1
        self.assertTrue(checks.check_orient_samples(samples))

    def test_asymmetric_distance_fails(self):
        samples = copy.deepcopy(self.SAMPLES)
        samples[0]["d_yx"] = 1
        self.assertTrue(checks.check_orient_samples(samples))

    def test_zero_on_distinct_states_fails(self):
        samples = copy.deepcopy(self.SAMPLES)
        samples[0].update(d_xy=0, d_yx=0, own=0)
        self.assertTrue(checks.check_orient_samples(samples))


def coalescence_case(times, m=64, interval=8):
    """A sweep row and its replayed cell for an exp01 cell with these
    meeting times."""
    ordered = sorted(times)
    cell = {"key": f"m={m},d=1", "m": m, "n": m, "d": 1,
            "check_interval": interval, "max_steps": 10**6,
            "T_mean": sum(times) / len(times),
            "T_q50": ordered[math.ceil(0.5 * len(times)) - 1],
            "T_q95": ordered[math.ceil(0.95 * len(times)) - 1],
            "times": list(times)}
    row = {"censored": 0, "T_mean": cell["T_mean"], "T_q50": cell["T_q50"],
           "T_q95": cell["T_q95"]}
    return [row], [cell]


class Coalescence(unittest.TestCase):
    TIMES = [200, 208, 240, 264, 272, 280, 296, 304, 320, 336, 360, 400]

    def test_sound_cell_passes(self):
        rows, cells = coalescence_case(self.TIMES)
        self.assertEqual(checks.check_coalescence("exp01", rows, cells), [])

    def test_censored_replica_fails(self):
        rows, cells = coalescence_case(self.TIMES)
        rows[0]["censored"] = 1
        cells[0]["times"][-1] = -1
        self.assertTrue(checks.check_coalescence("exp01", rows, cells))

    def test_meeting_below_movement_bound_fails(self):
        # From the extremal pair at m = 64 no coupled step closes more
        # than 2 of the 63 units of distance: T >= 32.
        self.assertEqual(checks.start_pair_distance(64, 64), 63)
        rows, cells = coalescence_case([24] + self.TIMES[1:])
        self.assertTrue(checks.check_coalescence("exp01", rows, cells))

    def test_theorem1_tail_share_fails(self):
        horizon = math.ceil(64 * math.log(64 / checks.THEOREM1_EPS))
        late = 8 * (horizon // 8 + 1)
        rows, cells = coalescence_case(self.TIMES[:2] + [late] * 10)
        self.assertTrue(checks.check_coalescence("exp01", rows, cells))

    def test_replay_differing_from_sweep_fails(self):
        rows, cells = coalescence_case(self.TIMES)
        rows[0]["T_mean"] += 1
        self.assertTrue(checks.check_coalescence("exp01", rows, cells))


class Stationary(unittest.TestCase):
    def row(self, d, a, b, fa, fb):
        return {"n": 8192, "d": d, "maxload_A": a, "maxload_B": b,
                "fluid_A": fa, "fluid_B": fb}

    def fluid(self):
        return {(sc, 2, 8192): checks.predicted_max_load(
                    checks.fluid_fixed_point(sc, 2), 8192) for sc in "AB"}

    def test_fluid_fixed_point(self):
        self.assertEqual(self.fluid(), {("A", 2, 8192): 3, ("B", 2, 8192): 4})
        profile = checks.fluid_fixed_point("B", 2)
        self.assertAlmostEqual(sum(profile), 1.0, places=6)

    def test_sound_rows_pass(self):
        rows = [self.row(1, 6.6, 13.1, 6, 12), self.row(2, 3.6, 4.05, 3, 4)]
        self.assertEqual(checks.check_stationary(rows, self.fluid()), [])

    def test_max_load_below_pigeonhole_fails(self):
        rows = [self.row(1, 0.98, 13.1, 6, 12)]
        self.assertTrue(checks.check_stationary(rows, self.fluid()))

    def test_far_from_fluid_fails(self):
        rows = [self.row(2, 5.2, 4.05, 3, 4)]
        self.assertTrue(checks.check_stationary(rows, self.fluid()))


class Serve(unittest.TestCase):
    REPLY = '{"exp":"exp01","key":"m=32,d=2","values":{"T_mean":112}}'

    def case(self):
        client = {"transport_failed": False, "attempted": 10, "ok": 10,
                  "run_cells": 6,
                  "cells": [{"key": 1, "local": self.REPLY,
                             "replies": [self.REPLY]}]}
        return client, {"hits": 4, "misses": 2}, [1, 1]

    def test_sound_run_passes(self):
        self.assertEqual(checks.check_serve(*self.case()), [])

    def test_corrupted_reply_byte_fails(self):
        client, router, backends = self.case()
        reply = client["cells"][0]["replies"][0]
        client["cells"][0]["replies"][0] = reply.replace("112", "113")
        self.assertTrue(checks.check_serve(client, router, backends))

    def test_failed_request_fails(self):
        client, router, backends = self.case()
        client["ok"] = 9
        self.assertTrue(checks.check_serve(client, router, backends))

    def test_tallies_that_disagree_fail(self):
        client, router, backends = self.case()
        self.assertTrue(checks.check_serve(client, router, [1, 2]))
        router["hits"] = 5
        self.assertTrue(checks.check_serve(client, router, backends))


if __name__ == "__main__":
    unittest.main()
