"""Vectorized batch stepping engine for fleets of transcoding servers.

The scalar engine advances a fleet one session at a time: per frame it walks
``Orchestrator.run_step`` → ``TranscodingSession.prepare``/``execute`` →
scalar calls into the WPP, complexity, rate-distortion and power models.
That per-session Python work caps cluster experiments at tens of servers.

The :class:`BatchStepper` replaces the per-session math with one fused NumPy
evaluation per cluster step:

1. **Gather** — every active session's next (QP, threads, frequency)
   decision plus per-frame content descriptors are packed into contiguous
   struct-of-arrays buffers ordered server-major.  Sessions running a stock
   :class:`~repro.core.mamut.MamutController` are advanced by the vectorized
   MAMUT driver (:class:`_MamutDriver` below): their observation windows
   live in fleet-wide struct-of-arrays running sums, and on activation steps
   the window averaging, :meth:`~repro.core.states.StateSpace.discretize_batch`
   and :meth:`~repro.core.rewards.RewardFunction.total_batch` (exact mode)
   run across every activating session in one shot before the Q updates and
   action selections are applied session by session (each session's
   exploration RNG draws stay in its own scalar order).  Each activation is
   handed the dense state index the driver computed with
   :meth:`~repro.core.states.StateSpace.state_index_batch`, so the
   controller addresses its agents' Q rows without re-indexing the state.
   Every other controller is asked per session via
   :meth:`~repro.manager.session.TranscodingSession.peek_decision`.
2. **Evaluate** — WPP speedup/efficiency, server thread allocation and
   contention, package power, decode/encode cycles and times, PSNR and
   bitrate are computed for the whole fleet in a handful of array
   expressions that mirror the scalar formulas operation for operation.
3. **Scatter** — per-session results are written back through
   :meth:`~repro.manager.session.TranscodingSession.commit_step_result`
   (or :meth:`~repro.manager.session.TranscodingSession.commit_driven_step`
   for driver-managed sessions; both produce the same
   ``FrameRecord``/``Observation`` objects the scalar path creates) and one
   ``PowerSample`` per server is emitted.

**Equivalence guarantee.**  For the same ``(workload seed, policies, cluster
seed)`` the batch engine produces *bitwise identical* results to the scalar
engine — same frame records, same power samples, same admission ledger, same
``ClusterSummary``.  This holds because the shared models evaluate the same
IEEE-754 operations in the same order (transcendental factors go through
per-QP lookup tables shared between the scalar and batch paths), and float
reductions (per-server power and duration sums) are applied in the scalar
engine's accumulation order.  The roster changes incrementally and
carries no hidden state: a joining session's lane reads everything from the
session and its controller, a surviving session keeps its lane and its MAMUT
driver state, and a leaving MAMUT session's observation window is written
back to its controller as it leaves, so the controller ends up holding what
the scalar engine would have left there.  Fault injection preserves the
guarantee: fault draws, session salvage and retries all happen in
orchestrator code outside the stepper, and a crash or recovery changes the
live fleet exactly like an autoscaling resize — the orchestrator hands the
same stepper the new fleet (``set_fleet``), which rebuilds only the
per-server constants.  Checkpointed resumes need no special handling either:
a replacement session constructed mid-video
(``TranscodingSession(start_frame_index=...)``) joins like any other, because
lanes read ``session.frame_index`` fresh at every gather and ``step_counter``
initialises from ``session.step``.  The equivalence is enforced by
``tests/test_cluster_batch.py``, ``tests/test_cluster_faults.py`` and
``tests/test_cluster_domains.py``.

Two deliberate deviations from the scalar path, neither observable in the
results: the in-memory DVFS driver mirror (``MulticoreServer``'s
``_apply_to_driver`` bookkeeping) is not maintained, and intermediate
``SessionDemand``/``ServerAllocation``/``TranscodeResult`` objects are never
materialised.  The batch engine also assumes the stock analytic models:
custom *parameters* are honoured (they are gathered per session), but
subclasses that override model *methods* need the scalar engine.  The same
rule applies to controllers: exactly ``MamutController`` (not subclasses) is
driven through the vectorized activation path, everything else falls back to
the per-session ``peek_decision`` protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.constants import TARGET_FPS
from repro.core.mamut import MamutController
from repro.core.observation import Observation
from repro.core.states import SystemState
from repro.errors import EncodingError
from repro.hevc.params import QP_MAX, QP_MIN
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.metrics.records import FrameRecord, PowerSample
from repro.platform.dvfs import DvfsPolicy
from repro.telemetry.profiler import NULL_PROFILER

__all__ = ["BatchStepper"]


class _ServerStatic:
    """Per-server constants, gathered when the stepper is bound to a fleet."""

    __slots__ = (
        "cores",
        "hw_threads",
        "smt_efficiency",
        "base_power_w",
        "core_leakage_w",
        "core_dynamic_w",
        "core_dynamic_smt2_w",
        "power_model",
        "min_frequency_ghz",
        "idle_core_power_min_w",
        "idle_core_power_cache",
        "idle_total_power_w",
        "vt_group",
    )

    def __init__(self, orchestrator: Orchestrator, vt_group: int) -> None:
        server = orchestrator.server
        topo = server.topology
        params = server.power_model.params
        self.cores = topo.physical_cores
        self.hw_threads = topo.hardware_threads
        self.smt_efficiency = topo.smt_efficiency
        self.base_power_w = params.base_power_w
        self.core_leakage_w = params.core_leakage_w
        self.core_dynamic_w = params.core_dynamic_w
        # Matches the scalar ``core_dynamic_w * (1.0 + bonus * (2 - 1))``.
        self.core_dynamic_smt2_w = params.core_dynamic_w * (
            1.0 + params.smt_activity_bonus
        )
        self.power_model = server.power_model
        self.min_frequency_ghz = server.dvfs.min_frequency_ghz
        self.idle_core_power_min_w = server.power_model.idle_core_power(
            self.min_frequency_ghz
        )
        # Chip-wide idle power per requested frequency; the DVFS action sets
        # are tiny, so this saturates after a handful of entries.
        self.idle_core_power_cache: dict[float, float] = {}
        # allocate([]) is side-effect free and deterministic, so this equals
        # what Orchestrator.idle_step would compute on every idle step.
        self.idle_total_power_w = server.allocate([]).total_power_w
        self.vt_group = vt_group


#: Names of the session-static per-lane float columns, in array order.
_STATIC_COLUMNS = (
    "base_cycles_per_pixel",
    "complexity_weight",
    "one_minus_complexity_weight",
    "motion_weight",
    "intra_cost_factor",
    "decode_base",
    "psnr_at_ref_qp",
    "psnr_slope",
    "psnr_ref_qp",
    "psnr_complexity_penalty",
    "psnr_motion_penalty",
    "psnr_floor",
    "psnr_ceiling",
    "bpp_at_ref_qp",
    "intra_rate_factor",
    "sync_overhead",
    "delivery_fps",
)

#: Names of the video-static per-lane float columns, in array order.
_VIDEO_COLUMNS = (
    "pixels",
    "rows",
    "cols",
    "serial_units",
    "effort_factor",
    "quality_gain_db",
    "compression_gain",
)

# Layout of one lane's column in the stepper's row store: the static values,
# the video values, then the rows of its models in the per-QP tables.
_STATIC_ROWS = slice(0, len(_STATIC_COLUMNS))
_VIDEO_ROWS = slice(_STATIC_ROWS.stop, _STATIC_ROWS.stop + len(_VIDEO_COLUMNS))
_COMP_ROW = _VIDEO_ROWS.stop
_RD_ROW = _COMP_ROW + 1
_ROW_WIDTH = _RD_ROW + 1


def _qp_table_row(tables: dict, params, build_table) -> int:
    """Row of ``params``'s per-QP table in ``tables``, registering it if new.

    ``tables`` maps a parameter set to ``(row, table)``; rows are handed out
    in insertion order, which is the stacking order of the tables.
    """
    entry = tables.get(params)
    if entry is None:
        entry = tables[params] = (len(tables), np.array(build_table()))
    return entry[0]


class _SessionLane:
    """One session's place in the stepper: its row-store slot and cached state.

    The lane writes its session-static values and its video values into
    column ``slot`` of the stepper's row store once, when it is built (the
    video values again when the session moves to its next playlist video),
    so roster rebuilds gather every lane's values with one fancy index.
    """

    __slots__ = (
        "session",
        "slot",
        # exactly MamutController rides the MAMUT driver; everything else
        # (subclasses included) keeps the per-session peek protocol
        "driven",
        # position in the MAMUT driver's arrays, -1 while not driven there
        "driver_index",
        "video_index",
        "session_id",
        "target_fps",
        "step_counter",
        "video_name",
        "resolution_class",
        # content columns of the current video (refreshed at playlist
        # transitions)
        "complexity_col",
        "motion_col",
        "scene_col",
    )

    def __init__(
        self,
        session: TranscodingSession,
        slot: int,
        rows: np.ndarray,
        comp_tables: dict,
        rd_tables: dict,
    ) -> None:
        self.session = session
        self.slot = slot
        self.driven = type(session.controller) is MamutController
        self.driver_index = -1
        self.session_id = session.session_id
        self.target_fps = session.request.target_fps
        self.step_counter = session.step

        encoder = session.transcoder.encoder
        comp = encoder.complexity_model.params
        rd = encoder.rd_model.params
        wpp = encoder.wpp_model.params
        decode = session.transcoder.decoder.complexity_model.params

        rows[_STATIC_ROWS, slot] = (
            comp.base_cycles_per_pixel,
            comp.complexity_weight,
            1.0 - comp.complexity_weight,
            comp.motion_weight,
            comp.intra_cost_factor,
            # First product of the scalar decode-cycles chain.
            decode.decode_fraction * decode.base_cycles_per_pixel,
            rd.psnr_at_ref_qp,
            rd.psnr_slope_db_per_qp,
            rd.ref_qp,
            rd.psnr_complexity_penalty_db,
            rd.psnr_motion_penalty_db,
            rd.psnr_floor_db,
            rd.psnr_ceiling_db,
            rd.bpp_at_ref_qp,
            rd.intra_rate_factor,
            wpp.sync_overhead_per_thread,
            encoder.delivery_fps,
        )
        rows[_COMP_ROW, slot] = _qp_table_row(
            comp_tables, comp, encoder.complexity_model._qp_factor_table
        )
        rows[_RD_ROW, slot] = _qp_table_row(
            rd_tables, rd, encoder.rd_model._qp_rate_table
        )

        self.refresh_video(rows)

    def refresh_video(self, rows: np.ndarray) -> None:
        """Re-gather the values that depend on the current playlist video."""
        session = self.session
        video = session.current_video
        wpp_model = session.transcoder.encoder.wpp_model
        self.video_index = session.video_index
        self.video_name = video.name
        self.resolution_class = video.resolution_class
        ctu_rows = wpp_model.ctu_rows(video.height)
        ctu_cols = wpp_model.ctu_cols(video.width)
        preset = session.preset_for(video)
        rows[_VIDEO_ROWS, self.slot] = (
            video.pixels_per_frame,
            ctu_rows,
            ctu_cols,
            ctu_rows * ctu_cols,
            preset.effort_factor,
            preset.quality_gain_db,
            preset.compression_gain,
        )
        self.complexity_col, self.motion_col, self.scene_col = video.content_columns


#: The MAMUT driver's per-lane arrays and their dtypes; resizes carry them
#: over by index.
_DRIVER_ARRAYS = (
    ("steps", np.int64),
    ("win_fps", np.float64),
    ("win_psnr", np.float64),
    ("win_bitrate", np.float64),
    ("win_power", np.float64),
    ("win_count", np.int64),
    ("pend_fps", np.float64),
    ("pend_psnr", np.float64),
    ("pend_bitrate", np.float64),
    ("pend_power", np.float64),
    ("pend_valid", np.bool_),
    ("qp", np.int64),
    ("threads", np.int64),
    ("freq", np.float64),
    ("hyper", np.int64),
    ("pattern_base", np.int64),
    ("vgid", np.int64),
)


class _MamutDriver:
    """Fleet-wide vectorized activation engine for stock MAMUT controllers.

    The scalar engine walks every MAMUT session's whole learning path in
    Python each frame (window append, schedule lookup, averaging,
    discretisation, reward, Eq. 3, Q update).  The driver keeps the
    per-session observation windows as struct-of-arrays running sums and, on
    activation steps, performs the averaging,
    :meth:`~repro.core.states.StateSpace.discretize_batch` and
    :meth:`~repro.core.rewards.RewardFunction.total_batch` (exact mode, so
    rewards are bitwise those of the scalar path) across *all* activating
    sessions at once — grouped by identical (state space, reward config)
    parameters so heterogeneous fleets still vectorize.  The remaining
    per-session work — the Q update and the action selection, whose
    exploration randomness must consume each session's RNG in its own
    scalar order — goes through
    :meth:`~repro.core.mamut.MamutController.apply_external_activation`,
    one call per activating lane.  The call carries the state's dense index
    from :meth:`~repro.core.states.StateSpace.state_index_batch` (keyword
    ``state_index``), which the controller keeps for the pending update
    and uses for every Q read and write; the index is also the key of the
    per-vector-group pool of interned :class:`SystemState` objects, so
    ``state_space.state_index(state) == state_index`` for every state
    handed over.  The applied (QP, threads, frequency) values are read back
    with :meth:`~repro.core.mamut.MamutController.current_values`.

    The controllers' canonical window state (running sums + count) lives in
    the arrays here while a lane is driven.  :meth:`resize` fits the arrays
    to a new roster — surviving lanes carry their state over by index,
    joining lanes read theirs from their controller and session, leaving
    lanes write their window back to their controller as they leave — and
    is the only way lanes enter the driver, which starts empty.
    :meth:`flush` writes back the windows of the lanes still driven.
    The schedule, vector-group and state-intern registries live as long as
    the driver.
    """

    __slots__ = tuple(name for name, _ in _DRIVER_ARRAYS) + (
        "lanes",
        "positions",
        "patterns",
        "agent_ids",
        "schedules",
        "vector_ids",
        "vector_members",
        "state_interns",
    )

    def __init__(self) -> None:
        self.lanes: list[_SessionLane] = []
        self.positions = np.empty(0, dtype=np.int64)
        for name, dtype in _DRIVER_ARRAYS:
            setattr(self, name, np.empty(0, dtype=dtype))
        # Activation tables: every registered schedule's frame -> fleet-wide
        # agent id (-1: nobody) pattern, concatenated; a lane's agent is
        # patterns[pattern_base + step % hyper].  Agent ids number the agent
        # names in registration order.
        self.patterns = np.empty(0, dtype=np.int64)
        self.agent_ids: dict[str, int] = {}
        self.schedules: dict[tuple, tuple[int, int]] = {}
        # Vector groups: lanes whose state space and reward parameters match
        # share one discretize_batch / total_batch call per activation step.
        self.vector_ids: dict[tuple, int] = {}
        self.vector_members: list[tuple] = []
        # Interned SystemState per dense index, one pool per vector group:
        # activations hitting a previously seen state reuse the object
        # instead of re-constructing the frozen dataclass.
        self.state_interns: list[list] = []

    # -- roster changes ------------------------------------------------------------------

    def resize(self, lanes: Sequence[_SessionLane], positions: Sequence[int]) -> None:
        """Drive exactly the lanes ``lanes[i] for i in positions``, in that order."""
        driven = [lanes[i] for i in positions]
        kept_new: list[int] = []
        kept_old: list[int] = []
        joined: list[int] = []
        for k, lane in enumerate(driven):
            if lane.driver_index < 0:
                joined.append(k)
            else:
                kept_new.append(k)
                kept_old.append(lane.driver_index)
            lane.driver_index = k
        if len(kept_old) < len(self.lanes):
            leaving = np.ones(len(self.lanes), dtype=bool)
            leaving[kept_old] = False
            left = np.flatnonzero(leaving).tolist()
            self._write_back(left)
            for k in left:
                self.lanes[k].driver_index = -1

        for name, _ in _DRIVER_ARRAYS:
            old = getattr(self, name)
            new = np.empty(len(driven), dtype=old.dtype)
            new[kept_new] = old[kept_old]
            setattr(self, name, new)
        self.lanes = driven
        self.positions = np.array(positions, dtype=np.int64)
        if joined:
            self._adopt(joined)

    def _adopt(self, joined: list[int]) -> None:
        """Read the joining lanes' state from their controllers and sessions."""
        lanes = [self.lanes[k] for k in joined]
        controllers = [lane.session.controller for lane in lanes]
        self.steps[joined] = [lane.step_counter for lane in lanes]

        fps, psnr, bitrate, power, count = zip(
            *(ctl.observation_window() for ctl in controllers)
        )
        self.win_fps[joined] = fps
        self.win_psnr[joined] = psnr
        self.win_bitrate[joined] = bitrate
        self.win_power[joined] = power
        self.win_count[joined] = count

        # The scalar engine folds a step's observation into the window at the
        # *next* step's decide(); the driver mirrors that timing by stashing
        # each step's results here and folding them at the next advance().
        # Between steps a session's not-yet-folded observation is exactly
        # session.last_observation (never yet in the controller's window), so
        # a joining lane — new, or back from a stretch on the scalar engine —
        # re-derives its stash from it.
        last = [lane.session.last_observation for lane in lanes]
        self.pend_valid[joined] = [obs is not None for obs in last]
        fps, psnr, bitrate, power = zip(
            *(
                (obs.fps, obs.psnr_db, obs.bitrate_mbps, obs.power_w)
                if obs is not None
                else (0.0, 0.0, 0.0, 0.0)
                for obs in last
            )
        )
        self.pend_fps[joined] = fps
        self.pend_psnr[joined] = psnr
        self.pend_bitrate[joined] = bitrate
        self.pend_power[joined] = power

        qp, threads, freq = zip(*(ctl.current_values() for ctl in controllers))
        self.qp[joined] = qp
        self.threads[joined] = threads
        self.freq[joined] = freq

        schedules = [self._schedule(ctl.schedule) for ctl in controllers]
        self.hyper[joined] = [hyper for hyper, _ in schedules]
        self.pattern_base[joined] = [base for _, base in schedules]
        self.vgid[joined] = [self._vector_group(ctl) for ctl in controllers]

    def _schedule(self, schedule) -> tuple[int, int]:
        """``schedule``'s (hyper period, offset into ``patterns``), registered once."""
        key = tuple((slot.name, slot.period, slot.offset) for slot in schedule.slots)
        entry = self.schedules.get(key)
        if entry is None:
            ids = {
                name: self.agent_ids.setdefault(name, len(self.agent_ids))
                for name in schedule.agent_names
            }
            pattern = np.array(
                [
                    ids.get(schedule.agent_at(frame), -1)
                    for frame in range(schedule.hyper_period)
                ],
                dtype=np.int64,
            )
            entry = self.schedules[key] = (schedule.hyper_period, len(self.patterns))
            self.patterns = np.concatenate([self.patterns, pattern])
        return entry

    def _vector_group(self, controller: MamutController) -> int:
        """Vector group of ``controller``'s state space and reward, registered once."""
        space = controller.state_space
        key = (
            (
                space.fps_target,
                space.fps_edges,
                space.psnr_edges,
                space.bitrate_edges_mbps,
                space.power_cap_w,
            ),
            controller.reward_function.config,
        )
        gid = self.vector_ids.get(key)
        if gid is None:
            gid = self.vector_ids[key] = len(self.vector_members)
            self.vector_members.append((space, controller.reward_function))
            self.state_interns.append([None] * space.size)
        return gid

    def _write_back(self, indices: Sequence[int]) -> None:
        """Write the windows of the lanes at ``indices`` to their controllers.

        The not-yet-folded stash is deliberately excluded: it equals each
        session's ``last_observation``, which the next engine folds itself
        (the scalar decide() appends it, a joining lane re-derives it), so
        writing it here would double-count the observation.
        """
        fps = self.win_fps.tolist()
        psnr = self.win_psnr.tolist()
        bitrate = self.win_bitrate.tolist()
        power = self.win_power.tolist()
        count = self.win_count.tolist()
        for k in indices:
            self.lanes[k].session.controller.set_observation_window(
                fps[k], psnr[k], bitrate[k], power[k], count[k]
            )

    def flush(self) -> None:
        """Write the windows of every driven lane back to its controller."""
        self._write_back(range(len(self.lanes)))

    # -- per-step operation ------------------------------------------------------------

    def advance(self) -> None:
        """Run this step's activations (fleet-vectorized) before the gather."""
        # Fold the previous step's observations into the windows — the
        # array mirror of the scalar decide()'s append-then-activate order.
        valid = self.pend_valid
        if valid.all():
            self.win_fps += self.pend_fps
            self.win_psnr += self.pend_psnr
            self.win_bitrate += self.pend_bitrate
            self.win_power += self.pend_power
            self.win_count += 1
            self.pend_valid = np.zeros_like(valid)
        elif valid.any():
            self.win_fps[valid] += self.pend_fps[valid]
            self.win_psnr[valid] += self.pend_psnr[valid]
            self.win_bitrate[valid] += self.pend_bitrate[valid]
            self.win_power[valid] += self.pend_power[valid]
            self.win_count[valid] += 1
            self.pend_valid = np.zeros_like(valid)

        agent_id = self.patterns[self.pattern_base + self.steps % self.hyper]
        act = (agent_id >= 0) & (self.win_count > 0)
        if not act.any():
            return
        pos = np.nonzero(act)[0]

        # Window averaging: one division per component, on the running sums
        # accumulated in arrival order — bitwise the scalar averages.
        counts = self.win_count[pos]
        avg_fps = self.win_fps[pos] / counts
        avg_psnr = self.win_psnr[pos] / counts
        avg_bitrate = self.win_bitrate[pos] / counts
        avg_power = self.win_power[pos] / counts

        rewards = np.empty(len(pos))
        states: list = [None] * len(pos)
        state_indices: list = [None] * len(pos)
        vgid = self.vgid[pos]
        for gid, (space, reward_function) in enumerate(self.vector_members):
            mask = vgid == gid
            if not mask.any():
                continue
            bins = space.discretize_batch(
                avg_fps[mask], avg_psnr[mask], avg_bitrate[mask], avg_power[mask]
            )
            rewards[mask] = reward_function.total_batch(
                avg_fps[mask],
                avg_psnr[mask],
                avg_bitrate[mask],
                avg_power[mask],
                exact=True,
            )
            indices = space.state_index_batch(bins).tolist()
            interns = self.state_interns[gid]
            for offset, k in enumerate(np.flatnonzero(mask).tolist()):
                state_index = indices[offset]
                state = interns[state_index]
                if state is None:
                    state = interns[state_index] = SystemState(*bins[offset].tolist())
                states[k] = state
                state_indices[k] = state_index

        # Per-session Q update + action selection, handing over each state's
        # dense index.  Sessions only ever touch their own agents and RNGs,
        # so the cross-session order is free: lanes go in roster order.
        # The applied (QP, threads, frequency) values are read back from the
        # controller's action indices and written as three columns per step.
        names = list(self.agent_ids)
        lanes = self.lanes
        rows = pos.tolist()
        steps = self.steps[pos].tolist()
        act_ids = agent_id[pos].tolist()
        rewards = rewards.tolist()
        applied = []
        for k, j in enumerate(rows):
            controller = lanes[j].session.controller
            controller.apply_external_activation(
                names[act_ids[k]],
                steps[k],
                states[k],
                rewards[k],
                state_index=state_indices[k],
            )
            applied.append(controller.current_values())
        qp, threads, freq = zip(*applied)
        self.qp[pos] = qp
        self.threads[pos] = threads
        self.freq[pos] = freq

        self.win_fps[pos] = 0.0
        self.win_psnr[pos] = 0.0
        self.win_bitrate[pos] = 0.0
        self.win_power[pos] = 0.0
        self.win_count[pos] = 0

    def commit_observations(
        self,
        fps: np.ndarray,
        psnr: np.ndarray,
        bitrate: np.ndarray,
        power: np.ndarray,
        window_reset: np.ndarray,
        finished: np.ndarray,
    ) -> None:
        """Stash this step's results for the next advance()'s window fold.

        All arguments are full-lane arrays.  ``window_reset`` marks lanes
        whose session moved to the next playlist video — their controller
        was reset, so the live window clears now and the stashed observation
        starts the fresh window at the next step (the scalar engine's order
        of events).  ``finished`` marks sessions that just completed: their
        controller never sees another observation, so nothing is stashed.
        """
        pos = self.positions
        reset = window_reset[pos]
        if reset.any():
            self.win_fps[reset] = 0.0
            self.win_psnr[reset] = 0.0
            self.win_bitrate[reset] = 0.0
            self.win_power[reset] = 0.0
            self.win_count[reset] = 0
        self.pend_fps = fps[pos]
        self.pend_psnr = psnr[pos]
        self.pend_bitrate = bitrate[pos]
        self.pend_power = power[pos]
        self.pend_valid = ~finished[pos]
        self.steps += 1


class BatchStepper:
    """Advances a fleet of orchestrators one step per call, batched.

    One stepper serves a whole run.  Sessions may join and leave between
    steps: each :meth:`step` receives the servers' active sessions, and a
    changed roster is re-gathered incrementally (surviving sessions keep
    their lane and their MAMUT driver state; only joining sessions are read
    in).  When the fleet itself changes — an autoscaling resize, a crash, a
    recovery — the owner calls :meth:`set_fleet`, which rebuilds only the
    per-server constants.

    Parameters
    ----------
    orchestrators:
        The per-server orchestrators, in fleet order.
    profiler:
        Optional :class:`~repro.telemetry.profiler.StepProfiler`; when given,
        each step charges its wall time to the engine's phases (``roster``
        rebuilds, ``mamut`` activations, ``gather``, ``evaluate``,
        ``scatter``).
        Timing is observe-only — results are bitwise identical either way.
    """

    def __init__(
        self, orchestrators: Sequence[Orchestrator], profiler=None
    ) -> None:
        self.profiler = profiler if profiler is not None else NULL_PROFILER

        # Lanes, the row store they write into (one column per lane slot;
        # slots of leaving lanes are reused), the per-QP table registries
        # (parameter set -> (row, table); see _qp_table_row) and the MAMUT
        # driver all live as long as the stepper.
        self._lane_by_session: dict[TranscodingSession, _SessionLane] = {}
        self._rows = np.empty((_ROW_WIDTH, 0))
        self._free_slots: list[int] = []
        self._comp_rows: dict = {}
        self._rd_rows: dict = {}
        self._comp_tables: Optional[np.ndarray] = None
        self._rd_tables: Optional[np.ndarray] = None
        self._driver = _MamutDriver()

        # Roster state, re-derived by _rebuild_roster whenever the per-server
        # session lists or the fleet change.
        self._actives: Optional[list[list[TranscodingSession]]] = None
        self._lanes: list[_SessionLane] = []
        self._legacy_pos: list[int] = []
        self._counts: list[int] = []
        self._starts: list[int] = []
        self._busy_idx: list[int] = []
        self._busy = np.empty(0, dtype=np.int64)
        self._busy_starts = np.empty(0, dtype=np.int64)
        self._busy_counts = np.empty(0, dtype=np.int64)
        self._columns = np.empty((_ROW_WIDTH, 0))
        self._static: dict[str, np.ndarray] = {}
        self._video_static: dict[str, np.ndarray] = {}
        self._comp_row_idx = np.empty(0, dtype=np.int64)
        self._rd_row_idx = np.empty(0, dtype=np.int64)
        self._leak_s = np.empty(0)
        self._dyn_s = np.empty(0)
        self._dyn_smt2_s = np.empty(0)
        self._vt_group_s = np.empty(0, dtype=np.int64)

        self.set_fleet(orchestrators)

    # -- fleet and roster maintenance ----------------------------------------------

    def set_fleet(self, orchestrators: Sequence[Orchestrator]) -> None:
        """Bind the stepper to the (resized) fleet ``orchestrators``.

        Rebuilds the per-server constants and marks the roster stale, so the
        next busy step re-gathers it; lanes, QP-table registries and MAMUT
        driver state carry over.
        """
        self.orchestrators = list(orchestrators)

        # Group identical voltage tables so heterogeneous fleets still
        # evaluate each distinct table in one vectorized call.
        self._voltage_tables: list = []
        vt_keys: dict[tuple, int] = {}
        self._servers: list[_ServerStatic] = []
        for orch in self.orchestrators:
            table = orch.server.power_model.voltage_table
            key = (tuple(table._freqs), tuple(table._volts))
            group = vt_keys.setdefault(key, len(self._voltage_tables))
            if group == len(self._voltage_tables):
                self._voltage_tables.append(table)
            self._servers.append(_ServerStatic(orch, group))

        self._srv_cores = np.array([s.cores for s in self._servers], dtype=np.int64)
        self._srv_hw = np.array(
            [s.hw_threads for s in self._servers], dtype=np.int64
        )
        self._srv_smt_eff = np.array([s.smt_efficiency for s in self._servers])
        self._srv_leak = np.array([s.core_leakage_w for s in self._servers])
        self._srv_dyn = np.array([s.core_dynamic_w for s in self._servers])
        self._srv_dyn_smt2 = np.array(
            [s.core_dynamic_smt2_w for s in self._servers]
        )
        self._srv_vt_group = np.array(
            [s.vt_group for s in self._servers], dtype=np.int64
        )
        self._actives = None

    def _new_lane(self, session: TranscodingSession) -> _SessionLane:
        if not self._free_slots:
            # Grow the row store geometrically; freed slots are reused first.
            size = self._rows.shape[1]
            grown = np.empty((_ROW_WIDTH, max(64, 2 * size)))
            grown[:, :size] = self._rows
            self._rows = grown
            self._free_slots = list(range(grown.shape[1] - 1, size - 1, -1))
        return _SessionLane(
            session,
            self._free_slots.pop(),
            self._rows,
            self._comp_rows,
            self._rd_rows,
        )

    def _rebuild_roster(self, actives: list[list[TranscodingSession]]) -> None:
        """Re-gather the roster after a membership or fleet change.

        Surviving sessions keep their lane; joining sessions get a fresh one
        (whose first read of its video generates that video's content);
        leaving sessions free their row-store slot, and the MAMUT driver
        resizes the same way.
        """
        previous = self._lane_by_session
        lane_by_session: dict[TranscodingSession, _SessionLane] = {}
        lanes: list[_SessionLane] = []
        counts: list[int] = []
        for sessions in actives:
            counts.append(len(sessions))
            for session in sessions:
                lane = previous.get(session)
                if lane is None:
                    lane = self._new_lane(session)
                lane_by_session[session] = lane
                lanes.append(lane)
        for session, lane in previous.items():
            if session not in lane_by_session:
                self._free_slots.append(lane.slot)
        self._lane_by_session = lane_by_session
        self._lanes = lanes
        self._actives = actives

        self._driver.resize(lanes, [i for i, lane in enumerate(lanes) if lane.driven])
        self._legacy_pos = [i for i, lane in enumerate(lanes) if not lane.driven]

        starts = [0]
        for count in counts:
            starts.append(starts[-1] + count)
        self._counts = counts
        self._starts = starts
        self._busy_idx = [i for i, count in enumerate(counts) if count > 0]
        self._busy = np.array(self._busy_idx, dtype=np.int64)
        self._busy_starts = np.array(
            [starts[i] for i in self._busy_idx], dtype=np.int64
        )
        self._busy_counts = np.array(
            [counts[i] for i in self._busy_idx], dtype=np.int64
        )

        # Every lane's static and video values plus its QP-table rows, by one
        # gather from the row store; the named columns are row views of it.
        slots = np.array([lane.slot for lane in lanes], dtype=np.int64)
        columns = self._rows[:, slots]
        self._columns = columns
        self._static = dict(zip(_STATIC_COLUMNS, columns[_STATIC_ROWS]))
        self._video_static = dict(zip(_VIDEO_COLUMNS, columns[_VIDEO_ROWS]))
        self._comp_row_idx = columns[_COMP_ROW].astype(np.int64)
        self._rd_row_idx = columns[_RD_ROW].astype(np.int64)

        # Stacked per-QP lookup tables, one row per distinct parameter set;
        # restacked only when a joining lane registered a new one.
        if self._comp_tables is None or len(self._comp_tables) != len(self._comp_rows):
            self._comp_tables = np.vstack(
                [table for _, table in self._comp_rows.values()]
            )
        if self._rd_tables is None or len(self._rd_tables) != len(self._rd_rows):
            self._rd_tables = np.vstack([table for _, table in self._rd_rows.values()])

        counts_arr = np.array(counts, dtype=np.int64)
        self._leak_s = np.repeat(self._srv_leak, counts_arr)
        self._dyn_s = np.repeat(self._srv_dyn, counts_arr)
        self._dyn_smt2_s = np.repeat(self._srv_dyn_smt2, counts_arr)
        self._vt_group_s = np.repeat(self._srv_vt_group, counts_arr)

    def flush_window_state(self) -> None:
        """Write driver-held observation windows back to their controllers.

        Lanes write theirs back as they leave the roster; this covers the
        lanes still on it, for callers that stop stepping (the end of a
        run, a ``max_steps`` cut) or hand control to something that reads
        the controllers — the scalar engine, a snapshot.  Stepping may go on
        afterwards.  A no-op without driven sessions.
        """
        self._driver.flush()

    def _refresh_video_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Apply in-place updates for sessions that moved to the next video.

        Returns two full-lane boolean masks for the MAMUT driver: lanes whose
        session advanced to the next playlist video (controller reset → the
        observation window restarts) and lanes whose session just finished.
        """
        advanced = np.zeros(len(self._lanes), dtype=bool)
        finished = np.zeros(len(self._lanes), dtype=bool)
        for index, lane in enumerate(self._lanes):
            session = lane.session
            if not session.active:
                finished[index] = True
            elif session.video_index != lane.video_index:
                advanced[index] = True
                lane.refresh_video(self._rows)
                self._columns[_VIDEO_ROWS, index] = self._rows[_VIDEO_ROWS, lane.slot]
        return advanced, finished

    # -- stepping -------------------------------------------------------------------

    def _voltage_arrays(self, freq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self._voltage_tables) == 1:
            table = self._voltage_tables[0]
            return (
                table.relative_voltage_batch(freq),
                table.relative_dynamic_batch(freq),
            )
        v_rel = np.empty_like(freq)
        dyn_rel = np.empty_like(freq)
        for group, table in enumerate(self._voltage_tables):
            mask = self._vt_group_s == group
            if mask.any():
                sub = freq[mask]
                v_rel[mask] = table.relative_voltage_batch(sub)
                dyn_rel[mask] = table.relative_dynamic_batch(sub)
        return v_rel, dyn_rel

    def _idle_sample(self, server_index: int, step: int) -> PowerSample:
        static = self._servers[server_index]
        sample = PowerSample(
            step=step,
            power_w=static.idle_total_power_w,
            duration_s=1.0 / TARGET_FPS,
            active_sessions=0,
        )
        self.orchestrators[server_index].meter.record(
            sample.power_w, sample.duration_s
        )
        return sample

    def step(
        self, step: int, actives: list[list[TranscodingSession]]
    ) -> list[PowerSample]:
        """Advance every server by one step; returns one sample per server.

        ``actives`` holds each server's active sessions, in fleet order —
        the lists :meth:`~repro.manager.orchestrator.Orchestrator.active_sessions`
        returned this step, which the stepper keeps and compares against
        the next step's but never modifies.  Idle servers contribute their
        idle power exactly like
        :meth:`~repro.manager.orchestrator.Orchestrator.idle_step`.
        """
        if not any(actives):
            return [
                self._idle_sample(index, step)
                for index in range(len(self.orchestrators))
            ]

        profiler = self.profiler
        if actives != self._actives:
            # Also where a joining session's video content is first generated.
            with profiler.phase("roster"):
                self._rebuild_roster(actives)

        lanes = self._lanes
        n = len(lanes)
        driver = self._driver if self._driver.lanes else None

        # -- gather: controller decisions + per-frame content -------------------
        # Driver-managed MAMUT fleets run their activations (fleet-vectorized
        # averaging / discretisation / rewards, per-session RNG + Q updates)
        # before their cached decisions are read; every other controller is
        # stepped through the per-session peek protocol.
        if driver is not None:
            with profiler.phase("mamut"):
                driver.advance()

        with profiler.phase("gather"):
            qp = np.empty(n, dtype=np.int64)
            threads = np.empty(n, dtype=np.int64)
            freq = np.empty(n)
            if driver is not None:
                qp[driver.positions] = driver.qp
                threads[driver.positions] = driver.threads
                freq[driver.positions] = driver.freq
            for i in self._legacy_pos:
                decision = lanes[i].session.peek_decision()
                qp[i] = decision.qp
                threads[i] = decision.threads
                freq[i] = decision.frequency_ghz

            fidx_l: list[int] = []
            cx_l: list[float] = []
            mo_l: list[float] = []
            sc_l: list[bool] = []
            for lane in lanes:
                frame_index = lane.session.frame_index
                fidx_l.append(frame_index)
                cx_l.append(lane.complexity_col[frame_index])
                mo_l.append(lane.motion_col[frame_index])
                sc_l.append(lane.scene_col[frame_index])

            # Decision.__post_init__ already enforces threads >= 1 and a
            # positive frequency; QP is only range-checked by EncoderConfig,
            # which the batch path never builds — enforce it here so a
            # misbehaving custom controller fails exactly like it would on
            # the scalar engine.
            if qp.min() < QP_MIN or qp.max() > QP_MAX:
                raise EncodingError(f"QP must be in [{QP_MIN}, {QP_MAX}]")
            complexity = np.array(cx_l)
            motion = np.array(mo_l)
            scene = np.array(sc_l, dtype=bool)

        with profiler.phase("evaluate"):
            static = self._static
            video = self._video_static
            rows = video["rows"]
            cols = video["cols"]
            serial_units = video["serial_units"]
            pixels = video["pixels"]

            # -- WPP speedup and thread efficiency (mirrors WppModel.speedup) ---
            usable = np.minimum(threads, rows)
            parallel_units = (rows / usable) * cols + 2 * (usable - 1)
            raw_speedup = serial_units / parallel_units
            overhead = 1.0 + static["sync_overhead"] * (threads - 1)
            speedup = np.maximum(1.0, raw_speedup / overhead)
            speedup = np.where(threads > 1, speedup, 1.0)
            activity = speedup / threads

            # -- per-server allocation (mirrors MulticoreServer.allocate) -------
            busy = self._busy
            busy_counts = self._busy_counts
            total_threads = np.add.reduceat(threads, self._busy_starts)
            cores_b = self._srv_cores[busy]
            hw_b = self._srv_hw[busy]
            smt_eff_b = self._srv_smt_eff[busy]

            shared = np.minimum(total_threads, hw_b) - cores_b
            capacity = np.where(
                total_threads <= cores_b,
                total_threads.astype(float),
                (cores_b - shared) + 2 * shared * smt_eff_b,
            )
            scale_b = np.minimum(1.0, capacity / total_threads)

            busy_physical = np.minimum(total_threads, cores_b).astype(float)
            smt_cores = np.maximum(
                0, np.minimum(total_threads, hw_b) - cores_b
            ).astype(float)
            single_cores = busy_physical - smt_cores
            idle_cores = cores_b - busy_physical

            scale_rep = np.repeat(scale_b, busy_counts)
            total_rep = np.repeat(total_threads, busy_counts)
            single_rep = np.repeat(single_cores, busy_counts)
            smt_rep = np.repeat(smt_cores, busy_counts)

            effective_activity = np.minimum(1.0, activity / scale_rep)
            v_rel, dyn_rel = self._voltage_arrays(freq)
            leakage = self._leak_s * v_rel
            per_single = leakage + (self._dyn_s * dyn_rel) * effective_activity
            per_smt = leakage + (self._dyn_smt2_s * dyn_rel) * effective_activity

            share = threads / total_rep
            own_single = share * single_rep
            own_smt = share * smt_rep
            session_power = own_single * per_single + own_smt * per_smt

            # -- transcode math (mirrors HevcDecoder/HevcEncoder) ---------------
            decode_cycles = (static["decode_base"] * pixels) * (
                0.7 + 0.3 * complexity
            )
            decode_time = decode_cycles / (freq * 1e9)

            qp_factor = self._comp_tables[self._comp_row_idx, qp - QP_MIN]
            content_factor = (
                static["one_minus_complexity_weight"]
                + static["complexity_weight"] * complexity
            )
            motion_factor = 1.0 + static["motion_weight"] * motion
            intra_factor = np.where(scene, static["intra_cost_factor"], 1.0)
            encode_cycles = (
                static["base_cycles_per_pixel"]
                * pixels
                * video["effort_factor"]
                * qp_factor
                * content_factor
                * motion_factor
                * intra_factor
            )
            effective = np.maximum(1.0, speedup * scale_rep)
            encode_time = encode_cycles / (freq * 1e9 * effective)

            psnr = (
                static["psnr_at_ref_qp"]
                - static["psnr_slope"] * (qp - static["psnr_ref_qp"])
                - static["psnr_complexity_penalty"] * (complexity - 1.0)
                - static["psnr_motion_penalty"] * motion
                + video["quality_gain_db"]
            )
            psnr = np.minimum(
                np.maximum(psnr, static["psnr_floor"]), static["psnr_ceiling"]
            )

            qp_scale = self._rd_tables[self._rd_row_idx, qp - QP_MIN]
            content_scale = complexity * (0.8 + 0.4 * motion)
            intra_scale = np.where(scene, static["intra_rate_factor"], 1.0)
            bpp = (
                static["bpp_at_ref_qp"]
                * qp_scale
                * content_scale
                * intra_scale
                * video["compression_gain"]
            )
            bits = bpp * pixels
            bitrate = bits * static["delivery_fps"] / 1e6

            total_time = decode_time + encode_time
            fps = 1.0 / total_time

        # -- scatter -------------------------------------------------------------
        with profiler.phase("scatter"):
            fps_l = fps.tolist()
            psnr_l = psnr.tolist()
            bitrate_l = bitrate.tolist()
            time_l = total_time.tolist()
            power_l = session_power.tolist()
            qp_l = qp.tolist()
            threads_l = threads.tolist()
            freq_list = freq.tolist()
            idle_cores_l = idle_cores.tolist()
            # Per-lane server power (each session observes its server's total
            # draw), fed back into the driver's observation windows.
            power_lane = np.empty(n)

            samples: list[Optional[PowerSample]] = [None] * len(
                self.orchestrators
            )
            make_observation = Observation
            make_record = FrameRecord
            counts = self._counts
            starts = self._starts
            for k, server_index in enumerate(self._busy_idx):
                start = starts[server_index]
                end = start + counts[server_index]
                orch = self.orchestrators[server_index]
                server_static = self._servers[server_index]

                # Idle/base power share (mirrors allocate's shared_power).
                if orch.server.dvfs_policy is DvfsPolicy.CHIP_WIDE:
                    idle_freq = max(freq_list[start:end])
                    cache = server_static.idle_core_power_cache
                    idle_core_power = cache.get(idle_freq)
                    if idle_core_power is None:
                        idle_core_power = (
                            server_static.power_model.idle_core_power(idle_freq)
                        )
                        cache[idle_freq] = idle_core_power
                else:
                    idle_core_power = server_static.idle_core_power_min_w
                idle_power = idle_cores_l[k] * idle_core_power
                shared_power = server_static.base_power_w + idle_power
                busy_power_total = sum(power_l[start:end])
                total_power = shared_power + busy_power_total
                power_lane[start:end] = total_power

                for i in range(start, end):
                    lane = lanes[i]
                    fps_i = fps_l[i]
                    psnr_i = psnr_l[i]
                    bitrate_i = bitrate_l[i]
                    # Positional construction, field order of the dataclasses.
                    observation = make_observation(
                        fps_i, psnr_i, bitrate_i, total_power
                    )
                    record = make_record(
                        lane.session_id,
                        lane.step_counter,
                        lane.video_name,
                        fidx_l[i],
                        lane.resolution_class,
                        qp_l[i],
                        threads_l[i],
                        freq_list[i],
                        fps_i,
                        psnr_i,
                        bitrate_i,
                        time_l[i],
                        total_power,
                        lane.target_fps,
                    )
                    lane.step_counter += 1
                    if lane.driven:
                        lane.session.commit_driven_step(record, observation)
                    else:
                        lane.session.commit_step_result(record, observation)

                duration = sum(time_l[start:end]) / counts[server_index]
                sample = PowerSample(
                    step=step,
                    power_w=total_power,
                    duration_s=duration,
                    active_sessions=counts[server_index],
                )
                orch.meter.record(sample.power_w, sample.duration_s)
                samples[server_index] = sample

            for server_index in range(len(self.orchestrators)):
                if samples[server_index] is None:
                    samples[server_index] = self._idle_sample(server_index, step)

            advanced, finished = self._refresh_video_columns()
            if driver is not None:
                driver.commit_observations(
                    fps, psnr, bitrate, power_lane, advanced, finished
                )
        return samples  # type: ignore[return-value]
