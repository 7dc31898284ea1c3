from __future__ import annotations

import ast
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import taxsim.gateway as gateway_module
from helpers import CountingGateway, FlakyTransport, panicking_transport
from taxsim.config import HouseholdLLMConfig, TaxAgentConfig
from taxsim.gateway import (
    CacheCorruptError,
    ChatGateway,
    ChatRequest,
    GatewayError,
    GatewaySettingError,
    ReplayMissError,
    ReplyParseError,
    TransportError,
    _end_torn_tail,
    _TAIL_BLOCK,
    exchange_key,
    load_cache,
)

REQUEST = ChatRequest(model_id="test-model", prompt="hello there", temperature=0.7)
URL = "http://example.invalid"


class TestChatRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(model_id="m", prompt="")

    def test_negative_temperature_rejected(self):
        for temperature in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                ChatRequest(model_id="m", prompt="p", temperature=temperature)


def json_dumps_key(model_id: str, prompt: str, temperature: float) -> str:
    """The key as first defined: the sha256 of the compact ``json.dumps``
    spelling of the request, which ``exchange_key`` must reproduce."""
    material = json.dumps(
        [model_id, prompt, float(temperature)],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# The characters the JSON encoder escapes (the 32 controls, quote, backslash)
# and neighbours it must leave alone (DEL, U+2028/9, multi-byte UTF-8).
KEY_ALPHABET = st.one_of(
    st.sampled_from([chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "\u2028", "\u2029"]),
    st.sampled_from(["a", " ", "é", "中", "\U0001f600", "\U00010348"]),
    st.characters(blacklist_categories=("Cs",)),
)
KEY_TEMPERATURES = st.sampled_from(
    [0.0, -0.0, 0, 1, 2, 0.7, 1e-7, 1e16, 1e22, 5e-324, float("nan"), float("inf"), float("-inf")]
)


class TestExchangeKey:
    def test_deterministic(self):
        assert exchange_key("m", "p", 0.7) == exchange_key("m", "p", 0.7)

    def test_sensitive_to_every_field(self):
        base = exchange_key("m", "p", 0.7)
        assert exchange_key("m2", "p", 0.7) != base
        assert exchange_key("m", "p2", 0.7) != base
        assert exchange_key("m", "p", 0.2) != base

    def test_frozen_value(self):
        # pinned so a key-scheme change cannot silently orphan old caches
        assert exchange_key("qwen-turbo-2024-09-19", "ping", 0.2) == (
            "5b768fd4ac3f833921ca37c0e13697e7f423e1394d03c59bc60024248c092570"
        )

    @given(
        model_id=st.text(KEY_ALPHABET, max_size=8),
        prompt=st.text(KEY_ALPHABET),
        temperature=st.one_of(KEY_TEMPERATURES, st.floats(), st.integers(0, 10**6)),
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_json_dumps_spelling(self, model_id, prompt, temperature):
        assert exchange_key(model_id, prompt, temperature) == json_dumps_key(
            model_id, prompt, temperature
        )

    @pytest.mark.parametrize("temperatures", [(-0.0, 0.0), (0.0, -0.0)])
    def test_sign_of_zero_temperature_spelled_on_every_call(self, temperatures):
        # A model id of its own per order, so nothing kept from an earlier
        # key of the same model can answer the first call.
        model_id = f"sign-of-zero-{temperatures[0]!r}"
        for temperature in temperatures:
            assert exchange_key(model_id, "p", temperature) == json_dumps_key(
                model_id, "p", temperature
            )
        assert exchange_key(model_id, "p", -0.0) != exchange_key(model_id, "p", 0.0)

    def test_every_escaped_character_alone(self):
        for text in [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f"]:
            for model_id, prompt in ((text, "p"), ("m", text), ("", text * 3 + "é")):
                assert exchange_key(model_id, prompt, 0.7) == json_dumps_key(model_id, prompt, 0.7)

    def test_lone_surrogate_raises_as_the_encoder_does(self):
        for key in (exchange_key, json_dumps_key):
            with pytest.raises(UnicodeEncodeError):
                key("m", "half a pair \ud800", 0.7)

    def test_fixture_cache_records_rekey_to_their_keys(self, fixtures_dir):
        lines = (fixtures_dir / "replay_cache.jsonl").read_bytes().splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
        assert records
        for record in records:
            assert record["key"] == exchange_key(
                record["model_id"], record["prompt"], record["temperature"]
            )


class TestRecordReplay:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        text = "weird reply é中文 with\nnewline, \u2028 line separator and \"quotes\""
        recorder = ChatGateway("record", cache_path=cache, transport=lambda req: text)
        assert recorder.complete(REQUEST) == text

        replayer = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        assert replayer.complete(REQUEST) == text

    def test_lone_surrogates_become_replacement_characters_in_every_mode(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        text = '{"work": 0.5} \ud800 é \udfff\ud83d\ude00 😀'
        want = '{"work": 0.5} \ufffd é \ufffd\ufffd\ufffd 😀'
        for mode in ("live", "record"):
            gateway = ChatGateway(mode, cache_path=cache, transport=lambda req: text)
            assert gateway.complete(REQUEST) == want
        replayer = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        assert replayer.complete(REQUEST) == want

        # A cache whose reply spells a surrogate with a JSON escape.
        key = exchange_key(REQUEST.model_id, REQUEST.prompt, REQUEST.temperature)
        cache.write_text(json.dumps({"key": key, "response": "cut \ud800"}) + "\n")
        replayer = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        assert replayer.complete(REQUEST) == "cut \ufffd"

    def test_replay_uses_no_transport(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        ChatGateway("record", cache_path=cache, transport=lambda req: "ok").complete(REQUEST)
        replayer = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        for _ in range(3):
            assert replayer.complete(REQUEST) == "ok"

    def test_replay_miss_names_the_key(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("")
        gateway = ChatGateway("replay", cache_path=cache)
        with pytest.raises(ReplayMissError) as err:
            gateway.complete(REQUEST)
        key = exchange_key(REQUEST.model_id, REQUEST.prompt, REQUEST.temperature)
        assert key in str(err.value)

    def test_cache_never_contains_credentials(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAXSIM_API_KEY", "super-secret")
        cache = tmp_path / "cache.jsonl"
        ChatGateway("record", cache_path=cache, transport=lambda req: "ok").complete(REQUEST)
        assert "super-secret" not in cache.read_text()

    def test_record_appends_full_request_fields(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        ChatGateway("record", cache_path=cache, transport=lambda req: "ok").complete(REQUEST)
        record = json.loads(cache.read_text().splitlines()[0])
        assert record["model_id"] == "test-model"
        assert record["prompt"] == "hello there"
        assert record["temperature"] == 0.7
        assert record["response"] == "ok"
        assert "timestamp" in record


# Whole JSON records whose key or response is not text: bad records.
NON_TEXT_RECORDS = [
    b'{"key": "k5", "response": 5}',
    b'{"key": "k5", "response": null}',
    b'{"key": "k5", "response": ["r"]}',
    b'{"key": ["k5"], "response": "r"}',
]

TORN_TAILS = {
    "mid_record": b'{"key": "k2", "resp',
    "mid_character": '{"key": "k2", "response": "中'.encode()[:-1],
}

# Lines of a cache file, whole and broken, and the ends that may follow them.
CACHE_LINES = [
    b'{"key": "k1", "response": "r1"}',
    b'{"key": "k1", "response": "later"}',
    json.dumps({"key": "k2", "response": "a\u2028b"}, ensure_ascii=False).encode(),
    b'{"key": "k3",\r"response": "split by a lone CR"}',
    b"",
    b"   ",
    b"not json",
    b'{"key": "k4"}',
    b"[1, 2]",
    b"[" * 100_000,  # deeper than the parser's recursion limit
    *NON_TEXT_RECORDS,
    *TORN_TAILS.values(),
]
LINE_ENDS = [b"\n", b"\r\n", b"\r", b""]


class TestCacheLoading:
    def test_torn_trailing_line_tolerated(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k1", "response": "r1"})
        cache.write_text(good + "\n" + '{"key": "k2", "resp')
        assert load_cache(cache) == {"k1": "r1"}

    def test_tail_torn_inside_a_character_tolerated(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k1", "response": "r1"})
        cache.write_bytes(good.encode() + b"\n" + TORN_TAILS["mid_character"])
        assert load_cache(cache) == {"k1": "r1"}

    def test_corrupt_interior_line_raises(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k1", "response": "r1"})
        cache.write_text("not json at all\n" + good + "\n")
        with pytest.raises(CacheCorruptError, match="bad record on line 1$"):
            load_cache(cache)

    def test_corrupt_line_after_a_blank_line_names_its_line(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k1", "response": "r1"})
        cache.write_text(f"{good}\n\nnot json at all\n{good}\n")
        with pytest.raises(CacheCorruptError, match="bad record on line 3$"):
            load_cache(cache)

    def test_later_duplicate_key_wins(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        lines = [
            json.dumps({"key": "k", "response": "old"}),
            json.dumps({"key": "k", "response": "new"}),
        ]
        cache.write_text("\n".join(lines) + "\n")
        assert load_cache(cache) == {"k": "new"}

    def test_bad_line_followed_by_blank_lines_raises(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k1", "response": "r1"})
        cache.write_text(good + "\n" + '{"key": "k2", "resp' + "\n\n  \n")
        with pytest.raises(CacheCorruptError, match="line 2$"):
            load_cache(cache)

    @pytest.mark.parametrize("record", NON_TEXT_RECORDS, ids=["int", "null", "list", "list_key"])
    def test_non_text_record_is_a_bad_record(self, tmp_path, record):
        cache = tmp_path / "cache.jsonl"
        good = b'{"key": "k1", "response": "r1"}\n'
        cache.write_bytes(record + b"\n" + good)
        with pytest.raises(CacheCorruptError, match="bad record on line 1$"):
            load_cache(cache)
        cache.write_bytes(good + record + b"\n")
        assert load_cache(cache) == {"k1": "r1"}

    def test_crlf_cache_loads(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        records = [{"key": f"k{i}", "response": f"r\u2028{i}"} for i in range(3)]
        lines = [json.dumps(record, ensure_ascii=False) for record in records]
        cache.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        assert load_cache(cache) == {f"k{i}": f"r\u2028{i}" for i in range(3)}

    @given(pieces=st.lists(st.tuples(st.sampled_from(CACHE_LINES), st.sampled_from(LINE_ENDS))))
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_accepts_and_rejects_what_a_whole_file_read_does(self, tmp_path, pieces):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b"".join(line + end for line, end in pieces))
        assert outcome(load_cache, cache) == outcome(whole_file_load_cache, cache)


def whole_file_load_cache(path: Path) -> dict[str, str]:
    """The reference reading of a cache: split the whole file's bytes into
    lines, tolerate a bad last line only, let the later duplicate win."""
    entries = {}
    lines = path.read_bytes().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, response = record["key"], record["response"]
            if not (isinstance(key, str) and isinstance(response, str)):
                raise TypeError("not text")
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            if i == len(lines) - 1:
                break
            raise CacheCorruptError(f"{path}: bad record on line {i + 1}") from exc
        entries[key] = response
    return entries


def outcome(load, path: Path):
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


GOOD_LINE = b'{"key": "k0", "response": "r0"}\n'
LONG_RECORD = json.dumps({"key": "k1", "response": "r" * 3 * _TAIL_BLOCK}).encode()
# A cache before and after ``_end_torn_tail``.
TAIL_REPAIRS = {
    "empty": (b"", b""),
    "whole": (GOOD_LINE, GOOD_LINE),
    "one_torn_fragment": (TORN_TAILS["mid_character"], b""),
    "no_newline": (GOOD_LINE + GOOD_LINE[:-1], GOOD_LINE + GOOD_LINE),
    "long_no_newline": (GOOD_LINE + LONG_RECORD, GOOD_LINE + LONG_RECORD + b"\n"),
    "torn_after_a_long_line": (LONG_RECORD + b"\n" + TORN_TAILS["mid_record"], LONG_RECORD + b"\n"),
    "long_torn_fragment": (GOOD_LINE + LONG_RECORD[:-5], GOOD_LINE),
    "non_text_record": (GOOD_LINE + NON_TEXT_RECORDS[0], GOOD_LINE),
}


@pytest.mark.parametrize("before,after", TAIL_REPAIRS.values(), ids=TAIL_REPAIRS.keys())
def test_end_torn_tail(tmp_path, before, after):
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(before)
    _end_torn_tail(cache)
    assert cache.read_bytes() == after


class TestRecordAfterInterruption:
    @pytest.mark.parametrize("torn", TORN_TAILS.values(), ids=TORN_TAILS.keys())
    def test_appends_after_a_torn_tail_survive(self, tmp_path, torn):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k1", "response": "r1"})
        cache.write_bytes(good.encode() + b"\n" + torn)
        gateway = ChatGateway("record", cache_path=cache, transport=lambda req: req.prompt.upper())
        first = ChatRequest(model_id="m", prompt="first")
        second = ChatRequest(model_id="m", prompt="second")
        gateway.complete(first)
        assert load_cache(cache) == {"k1": "r1", exchange_key("m", "first", 0.7): "FIRST"}
        gateway.complete(second)
        assert load_cache(cache) == {
            "k1": "r1",
            exchange_key("m", "first", 0.7): "FIRST",
            exchange_key("m", "second", 0.7): "SECOND",
        }

    def test_whole_last_record_without_newline_is_kept(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"key": "k1", "response": "r1"}))
        gateway = ChatGateway("record", cache_path=cache, transport=lambda req: "ok")
        gateway.complete(REQUEST)
        assert load_cache(cache) == {"k1": "r1", exchange_key("test-model", "hello there", 0.7): "ok"}


class TestLiveMode:
    @pytest.mark.parametrize("mode", ["live", "record"])
    def test_one_complete_is_one_transport_call(self, mode, tmp_path):
        sleeps: list[float] = []
        transport = FlakyTransport("answer", 1)
        gateway = ChatGateway(
            mode, cache_path=tmp_path / "cache.jsonl", transport=transport, sleeper=sleeps.append
        )
        with pytest.raises(TransportError) as caught:
            gateway.complete(REQUEST)
        assert isinstance(caught.value.__cause__, ConnectionError)
        assert transport.calls == 1 and sleeps == []
        assert gateway.complete(REQUEST) == "answer"
        assert transport.calls == 2

    @pytest.mark.parametrize("reply", [None, b"bytes", 7])
    def test_reply_that_is_not_text_is_a_transport_error(self, reply, tmp_path):
        cache = tmp_path / "cache.jsonl"
        gateway = ChatGateway("record", cache_path=cache, transport=lambda request: reply)
        with pytest.raises(TransportError, match="not text"):
            gateway.complete(REQUEST)
        assert cache.read_bytes() == b""

    def test_transport_gateway_error_is_raised_at_once(self):
        # What lets a test transport fail loudly, e.g. when its replies run out.
        sleeps: list[float] = []
        calls = {"n": 0}

        def refusing(request):
            calls["n"] += 1
            raise GatewayError("no replies left")

        gateway = ChatGateway("live", transport=refusing, sleeper=sleeps.append)
        with pytest.raises(GatewayError, match="no replies left"):
            gateway.ask(HouseholdLLMConfig(max_retries=3), "p", str)
        assert calls["n"] == 1 and sleeps == []

    def test_live_without_credential_rejected(self, monkeypatch):
        monkeypatch.delenv("TAXSIM_API_KEY", raising=False)
        with pytest.raises(GatewayError):
            ChatGateway("live", endpoint="http://example.invalid")

    def test_live_without_endpoint_rejected(self):
        with pytest.raises(GatewayError):
            ChatGateway("live")


class TestHttpTransport:
    def test_wire_payload_shape(self, monkeypatch):
        import requests

        seen = {}

        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": "the reply"}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        from taxsim.gateway import http_chat_transport

        send = http_chat_transport("http://host/v1/", "key-123", timeout=9.0)
        request = ChatRequest(model_id="m1", prompt="hi", temperature=0.4, max_tokens=99)
        assert send(request) == "the reply"
        assert seen["url"] == "http://host/v1/chat/completions"
        assert seen["payload"] == {
            "model": "m1",
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.4,
            "max_tokens": 99,
        }
        assert seen["headers"] == {"Authorization": "Bearer key-123"}
        assert seen["timeout"] == 9.0


class TestConcurrency:
    def test_concurrent_record_appends_stay_whole_lines(self, tmp_path):
        import threading

        cache = tmp_path / "cache.jsonl"
        gateway = ChatGateway(
            "record", cache_path=cache, transport=lambda req: "r" * 50
        )

        def worker(i):
            gateway.complete(ChatRequest(model_id="m", prompt=f"p{i}"))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        assert len(records) == 20
        assert {r["prompt"] for r in records} == {f"p{i}" for i in range(20)}


class _SyscallLog:
    """The ``os`` module as ``taxsim.gateway`` sees it, counting ``open``,
    ``write`` and ``close``; ``write`` writes at most ``max_write`` bytes a
    call, as a short write may."""

    def __init__(self, max_write: int | None = None) -> None:
        self.calls = {"open": 0, "write": 0, "close": 0}
        self.max_write = max_write

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, *args, **kwargs):
        self.calls["open"] += 1
        return os.open(*args, **kwargs)

    def write(self, fd, data):
        self.calls["write"] += 1
        return os.write(fd, data[: self.max_write])

    def close(self, fd):
        self.calls["close"] += 1
        return os.close(fd)


def _complete_on_threads(gateway, requests, threads: int) -> None:
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(gateway.complete, requests))


class TestRecordCacheDescriptor:
    def test_cache_opened_once_and_written_once_per_exchange(self, tmp_path, monkeypatch):
        syscalls = _SyscallLog()
        monkeypatch.setattr(gateway_module, "os", syscalls)
        opened: list[tuple] = []  # what the module opens through the builtin

        def logged_open(*args, **kwargs):
            opened.append(args)
            return open(*args, **kwargs)

        monkeypatch.setattr(gateway_module, "open", logged_open, raising=False)
        cache = tmp_path / "cache.jsonl"
        gateway = ChatGateway("record", cache_path=cache, transport=lambda req: req.prompt)
        requests = [ChatRequest(model_id="m", prompt=f"p{i}") for i in range(20)]
        _complete_on_threads(gateway, requests, threads=8)
        assert syscalls.calls == {"open": 1, "write": 20, "close": 0}
        assert opened == []
        assert load_cache(cache) == {exchange_key("m", f"p{i}", 0.7): f"p{i}" for i in range(20)}

    def test_short_writes_are_retried_into_whole_lf_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gateway_module, "os", _SyscallLog(max_write=1_000))
        cache = tmp_path / "cache.jsonl"
        reply = "\u00e9" * 100_000  # 200 KB of UTF-8
        gateway = ChatGateway("record", cache_path=cache, transport=lambda req: req.prompt + reply)
        requests = [ChatRequest(model_id="m", prompt=f"p{i}") for i in range(4)]
        _complete_on_threads(gateway, requests, threads=4)
        data = cache.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        prompts = [json.loads(line)["prompt"] for line in data.splitlines()]
        assert sorted(prompts) == ["p0", "p1", "p2", "p3"]
        want = {exchange_key("m", f"p{i}", 0.7): f"p{i}" + reply for i in range(4)}
        assert load_cache(cache) == want

    def test_construction_makes_the_cache_and_its_directories(self, tmp_path):
        cache = tmp_path / "new" / "dirs" / "cache.jsonl"
        ChatGateway("record", cache_path=cache, transport=panicking_transport)
        assert cache.read_bytes() == b""

    def test_cache_that_cannot_be_opened_fails_before_any_call(self, tmp_path):
        (tmp_path / "f").write_text("a file, not a directory")
        calls: list[ChatRequest] = []
        with pytest.raises(GatewaySettingError) as caught:
            ChatGateway("record", cache_path=tmp_path / "f" / "cache.jsonl", transport=calls.append)
        assert caught.value.setting == "cache_path"
        assert calls == []


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ChatGateway("telepathy")

    def test_replay_requires_cache_path(self):
        with pytest.raises(GatewayError):
            ChatGateway("replay")

    def test_record_requires_cache_path(self):
        with pytest.raises(GatewayError):
            ChatGateway("record", transport=lambda req: "ok")

    @pytest.mark.parametrize(
        "mode,kwargs,setting",
        [
            ("replay", {"cache_path": "missing.jsonl"}, "cache_path"),
            ("record", {"cache_path": ".", "transport": lambda req: "ok"}, "cache_path"),
            ("live", {}, "endpoint"),
            (
                "record",
                {"cache_path": "c.jsonl", "endpoint": URL, "api_key_env": "UNSET_KEY"},
                "api_key_env",
            ),
        ],
    )
    def test_setting_errors_name_the_setting(self, mode, kwargs, setting, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("UNSET_KEY", raising=False)
        with pytest.raises(GatewaySettingError) as caught:
            ChatGateway(mode, **kwargs)
        assert caught.value.setting == setting

    def test_record_without_credential_leaves_a_torn_cache_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("UNSET_KEY", raising=False)
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(GOOD_LINE + TORN_TAILS["mid_record"])
        with pytest.raises(GatewaySettingError):
            ChatGateway("record", cache_path=cache, endpoint=URL, api_key_env="UNSET_KEY")
        assert cache.read_bytes() == GOOD_LINE + TORN_TAILS["mid_record"]


class TestAsk:
    def test_request_comes_from_the_section(self):
        requests: list[ChatRequest] = []

        def answering(request):
            requests.append(request)
            return "reply"

        section = TaxAgentConfig(model_id="m", temperature=0.3, max_tokens=9)
        assert ChatGateway("live", transport=answering).ask(section, "p", str.upper) == "REPLY"
        assert requests == [ChatRequest("m", "p", 0.3, 9)]
        assert ChatRequest.of(section, "p") == requests[0]

    def test_failed_complete_costs_an_attempt(self):
        sleeps: list[float] = []
        transport = FlakyTransport("answer", 1)
        gateway = ChatGateway("live", transport=transport, sleeper=sleeps.append)
        # No backoff follows the last attempt.
        assert gateway.ask(HouseholdLLMConfig(max_retries=1), "p", str) is None
        assert transport.calls == 1 and sleeps == []

    def test_always_down_transport_backs_off_between_attempts(self):
        sleeps: list[float] = []
        transport = FlakyTransport("answer", 10**9)
        gateway = ChatGateway("live", transport=transport, sleeper=sleeps.append)
        assert gateway.ask(HouseholdLLMConfig(max_retries=5), "p", str) is None
        assert transport.calls == 5
        assert sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_recovers_after_transient_failures(self):
        sleeps: list[float] = []
        transport = FlakyTransport("finally", 2)
        gateway = ChatGateway("live", transport=transport, sleeper=sleeps.append)
        assert gateway.ask(HouseholdLLMConfig(max_retries=3), "p", str) == "finally"
        assert transport.calls == 3
        assert sleeps == [1.0, 2.0]

    def test_unparsable_reply_is_asked_again_at_once(self):
        sleeps: list[float] = []
        replies = iter(["bad", "bad", "7"])
        gateway = ChatGateway("live", transport=lambda r: next(replies), sleeper=sleeps.append)

        def parse(text):
            if not text.isdigit():
                raise ReplyParseError(text)
            return int(text)

        assert gateway.ask(HouseholdLLMConfig(max_retries=3), "p", parse) == 7
        assert sleeps == []

    def test_other_parse_errors_propagate(self):
        # Only a ReplyParseError asks again.
        gateway = CountingGateway("live", transport=lambda request: "reply")
        with pytest.raises(ValueError, match="invalid literal"):
            gateway.ask(HouseholdLLMConfig(max_retries=3), "p", int)
        assert gateway.calls == 1


def complete_callers(path: Path) -> list[str]:
    """The qualified name of the function around each ``.complete(`` call
    in a module's source."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "complete"
            ):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_only_ask_calls_complete():
    # Every LLM call goes through ask, the one retry loop.
    package = Path(gateway_module.__file__).parent
    callers = {
        path.name: complete_callers(path) for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in callers.items() if found} == {
        "gateway.py": ["ChatGateway.ask"]
    }
