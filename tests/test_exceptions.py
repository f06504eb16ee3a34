"""Tests for the exception hierarchy and error ergonomics."""

import pytest

from repro.exceptions import (
    AdmissionError,
    AuthError,
    DomainError,
    GatewayDisconnected,
    ParameterError,
    PrismError,
    ProtocolError,
    QueryError,
    ShareError,
    VerificationError,
)

MEDIAN_VERIFY_MESSAGE = "MEDIAN has no verification stream"


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        ParameterError, ShareError, ProtocolError, VerificationError,
        DomainError, QueryError, AuthError, AdmissionError,
        GatewayDisconnected,
    ])
    def test_all_derive_from_prism_error(self, exc):
        assert issubclass(exc, PrismError)
        with pytest.raises(PrismError):
            raise exc("boom")

    def test_single_catch_covers_library(self):
        caught = []
        for exc in (ParameterError, VerificationError, QueryError):
            try:
                raise exc("x")
            except PrismError as e:
                caught.append(type(e))
        assert caught == [ParameterError, VerificationError, QueryError]


class TestVerificationErrorPayload:
    def test_failed_cells_recorded(self):
        err = VerificationError("bad", failed_cells=[3, 7])
        assert err.failed_cells == [3, 7]
        assert "bad" in str(err)

    def test_failed_cells_optional(self):
        assert VerificationError("bad").failed_cells is None

    def test_failed_cells_copied_to_list(self):
        err = VerificationError("bad", failed_cells=(1, 2))
        assert err.failed_cells == [1, 2]
        assert isinstance(err.failed_cells, list)


class TestServingErrorPayloads:
    def test_admission_error_carries_retry_after(self):
        err = AdmissionError("slow down", retry_after=0.25)
        assert err.retry_after == 0.25
        assert "slow down" in str(err)

    def test_admission_error_retry_after_optional(self):
        assert AdmissionError("full").retry_after is None

    def test_gateway_disconnected_carries_address(self):
        err = GatewayDisconnected("gateway gone", address="10.0.0.7:9000")
        assert err.address == "10.0.0.7:9000"
        assert "gateway gone" in str(err)
        # Connection-level failures must be catchable as protocol
        # errors by code that predates the typed subclass.
        assert isinstance(err, ProtocolError)

    def test_gateway_disconnected_address_optional(self):
        assert GatewayDisconnected("gone").address is None


class TestServingWireRoundTrip:
    """AuthError/AdmissionError cross the framed wire as themselves.

    The gateway replies with the standard ``__error__`` frame; the
    client side rebuilds the typed exception by name — the same
    machinery entity channels use, so there is nothing session-specific
    to get wrong.
    """

    @staticmethod
    def _round_trip(exc):
        from repro.network.codec import FULL_SPAN, decode_frame, encode_frame
        from repro.network.rpc import ERROR, _remote_exception
        payload = {"type": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "retry_after", None) is not None:
            payload["retry_after"] = float(exc.retry_after)
        if getattr(exc, "address", None) is not None:
            payload["address"] = str(exc.address)
        frame = decode_frame(encode_frame(ERROR, 7, FULL_SPAN, payload))
        assert frame.kind == ERROR
        return _remote_exception(frame.payload)

    def test_auth_error_round_trips(self):
        rebuilt = self._round_trip(AuthError("tenant 'b' may not"))
        assert type(rebuilt) is AuthError
        assert "may not" in str(rebuilt)
        assert isinstance(rebuilt, PrismError)

    def test_admission_error_round_trips_with_retry_after(self):
        rebuilt = self._round_trip(
            AdmissionError("over limit", retry_after=1.5))
        assert type(rebuilt) is AdmissionError
        assert rebuilt.retry_after == 1.5

    def test_admission_error_round_trips_without_retry_after(self):
        rebuilt = self._round_trip(AdmissionError("queue full"))
        assert type(rebuilt) is AdmissionError
        assert rebuilt.retry_after is None

    def test_gateway_disconnected_round_trips_with_address(self):
        rebuilt = self._round_trip(
            GatewayDisconnected("mid-call loss", address="127.0.0.1:8443"))
        assert type(rebuilt) is GatewayDisconnected
        assert rebuilt.address == "127.0.0.1:8443"
        assert isinstance(rebuilt, ProtocolError)


class TestMedianVerifyRejection:
    """Every path rejects verified MEDIAN with one typed exception.

    The shim (``PrismSystem.psi_median``), the program, the builder
    and the plan IR must all raise
    :class:`QueryError` with the same message — historically the shim
    path leaked a ``TypeError`` instead.
    """

    @staticmethod
    def _system():
        from repro import Domain, PrismSystem, Relation
        relations = [Relation("a", {"k": [1, 2], "v": [3, 4]}),
                     Relation("b", {"k": [1, 2], "v": [5, 6]})]
        return PrismSystem.build(relations, Domain.integer_range("k", 4),
                                 "k", agg_attributes=("v",), seed=1)

    def test_plan_ir_rejects(self):
        from repro.api.plan import LogicalPlan
        with pytest.raises(QueryError, match=MEDIAN_VERIFY_MESSAGE):
            LogicalPlan(set_op="psi", attribute="k",
                        aggregates=(("MEDIAN", "v"),), verify=True)

    def test_median_program_rejects(self):
        from repro.core.interactive import MedianProgram
        system = self._system()
        with pytest.raises(QueryError, match=MEDIAN_VERIFY_MESSAGE):
            MedianProgram(system, "k", "v", verify=True)

    def test_system_shim_rejects(self):
        system = self._system()
        with pytest.raises(QueryError, match=MEDIAN_VERIFY_MESSAGE):
            system.psi_median("k", "v", verify=True)

    def test_builder_path_rejects(self):
        from repro import Q
        system = self._system()
        with system.client() as client:
            with pytest.raises(QueryError, match=MEDIAN_VERIFY_MESSAGE):
                client.execute(Q.psi("k").median("v").verify())
