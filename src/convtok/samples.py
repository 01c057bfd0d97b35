"""Deterministic desk-scale sample corpora.

Synthesizes a web-style document corpus and a multilingual chat corpus with
the distribution contrasts the experiments probe: chat text carries slang,
typos, code snippets and a larger non-English share, while both domains share
an English core (function words, a common lexicon, pasted web prose and
URLs). Everything derives from one seeded PRNG, so the same seed always
produces byte-identical files.

The corpora are synthetic stand-ins for real chat/web datasets, sized so the
full experiment pipeline runs in minutes on a laptop.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from .errors import write_atomic

DEFAULT_SEED = 20250601
DEFAULT_DOC_BYTES = 2_000_000
DEFAULT_CONV_BYTES = 2_000_000

# ---------------------------------------------------------------------------
# Lexicons: function words are fixed; content words are synthesized from
# per-language syllable inventories and sampled with a Zipf-like law.
# ---------------------------------------------------------------------------

EN_FUNCTION = (
    "the of and to in a is that for it as was with be by on not are this or "
    "from at which but have an they one had we all their been will there can "
    "who has when more if out so up into about than its over new some could "
    "these two may then do first any like now my such make our"
).split()
ES_FUNCTION = (
    "el la de que y a en un ser se no haber por con su para como estar tener "
    "le lo todo pero más hacer o poder decir este ir otro ese si me ya ver "
    "porque dar cuando muy sin vez mucho saber qué sobre mi alguno mismo "
    "también hasta año dos querer entre así primero desde grande eso ni nos"
).split()
FR_FUNCTION = (
    "le de un être et à il avoir ne je son que se qui ce dans en du elle au "
    "pour pas vouloir sur faire plus dire me on mon lui nous comme mais "
    "pouvoir avec tout y aller voir bien où sans tu ou leur si deux moi vous"
).split()
DE_FUNCTION = (
    "der die und in den von zu das mit sich des auf für ist im dem nicht ein "
    "eine als auch es an werden aus er hat dass sie nach wird bei einer um am "
    "sind noch wie einem über einen so zum war haben nur oder aber vor zur bis"
).split()
PT_FUNCTION = (
    "o a de que e do da em um para é com não uma os no se na por mais as dos "
    "como mas foi ao ele das tem à seu sua ou ser quando muito há nos já está "
    "eu também só pelo pela até isso ela entre era depois sem mesmo aos ter"
).split()
RU_FUNCTION = (
    "и в не на я быть он с что а по это она этот к но они мы как из у который "
    "то за свой весь год от так о для ты же все тот мочь вот человек только"
).split()

EN_ONSETS = ["b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v", "w",
             "br", "ch", "cl", "cr", "dr", "fl", "gr", "pl", "pr", "sh", "sl", "sp", "st", "th", "tr"]
EN_VOWELS = ["a", "e", "i", "o", "u", "a", "e", "i", "o", "ai", "ea", "ee", "io", "ou"]
EN_CODAS = ["", "b", "ck", "d", "g", "l", "m", "n", "nd", "ng", "nt", "p", "r", "rd", "s", "st", "t"]
EN_SUFFIXES = ["", "", "", "s", "s", "ed", "ing", "er", "ion", "ity", "al", "ly"]

ES_ONSETS = ["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v",
             "br", "ch", "cr", "dr", "fl", "gr", "pl", "pr", "tr"]
ES_VOWELS = ["a", "e", "i", "o", "u", "a", "e", "o", "ió", "ía", "ué", "á", "é"]
ES_CODAS = ["", "", "n", "r", "s", "l", "z"]
ES_SUFFIXES = ["", "", "o", "a", "os", "as", "ción", "dad", "mente", "ar", "ero"]

FR_VOWELS = ["a", "e", "i", "o", "u", "é", "è", "ai", "ou", "eau", "oi", "eu"]
FR_SUFFIXES = ["", "", "e", "es", "ment", "tion", "eur", "age", "ique", "oire"]

DE_VOWELS = ["a", "e", "i", "o", "u", "ä", "ö", "ü", "ei", "au", "ie"]
DE_SUFFIXES = ["", "", "en", "er", "ung", "lich", "keit", "isch", "chen"]

PT_VOWELS = ["a", "e", "i", "o", "u", "ã", "õ", "á", "é", "ão", "ei", "ou"]
PT_SUFFIXES = ["", "", "s", "o", "a", "ção", "mente", "dade", "eiro"]

RU_ONSETS = ["б", "в", "г", "д", "ж", "з", "к", "л", "м", "н", "п", "р", "с", "т", "ф", "х",
             "ч", "ш", "ст", "пр", "вз", "до"]
RU_VOWELS = ["а", "е", "и", "о", "у", "ы", "я", "ю", "ё"]
RU_CODAS = ["", "", "й", "н", "р", "с", "т", "ль", "м"]
RU_SUFFIXES = ["", "", "ть", "ый", "ая", "ов", "ами", "ение", "ость", "но"]

CHAT_SLANG = (
    "hey hi thanks thx pls please ok okay yeah btw idk lol haha cool great "
    "awesome sorry oops hmm wow help stuck weird broken"
).split()
CODE_LINES = [
    "def {f}({a}):", "    return {a} + {n}", "for i in range({n}):", "    print(i)",
    "const {a} = {n};", "if ({a} > {n}) {{", "}}", "import {f}", "{a} = [{n}, {n}]",
    "while {a} < {n}:", "    {a} += 1", "SELECT * FROM {f} WHERE id = {n};",
]
USER_LEADS = ["how do i", "can you", "what is", "why is", "pls help with", "whats",
              "i need to", "explain", ""]
ASSISTANT_INTROS = ["Sure! ", "Certainly. ", "Here's a quick overview: ", "Of course. ",
                    "", "", ""]
MODEL_NAMES = ["vicuna-13b", "alpaca-13b", "llama-2-13b-chat", "chatglm-6b", "koala-13b",
               "mpt-7b-chat", "oasst-pythia-12b", "fastchat-t5-3b"]

LANGUAGE_WEIGHTS = [
    ("english", 0.78), ("spanish", 0.10), ("chinese", 0.025), ("french", 0.03),
    ("german", 0.025), ("portuguese", 0.02), ("russian", 0.015),
]


def _zipf_idx(rng: random.Random, n: int) -> int:
    # mostly a steep power law, with a log-uniform component for tail breadth
    if rng.random() < 0.85:
        return min(n - 1, int((1.0 - rng.random()) ** -2.5) - 1)
    return min(n - 1, int(math.exp(rng.random() * math.log(n))) - 1)


def _make_lexicon(rng, n_words, onsets, vowels, codas, suffixes) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n_words:
        word = "".join(
            rng.choice(onsets) + rng.choice(vowels)
            + (rng.choice(codas) if rng.random() < 0.6 else "")
            for _ in range(rng.randint(1, 3))
        ) + rng.choice(suffixes)
        if word and word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _make_cjk_lexicon(rng, n_words, pool_size=350) -> list[str]:
    pool = [chr(0x4E00 + rng.randrange(0x2000)) for _ in range(pool_size)]
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n_words:
        word = "".join(rng.choice(pool) for _ in range(rng.choice([1, 2, 2, 2, 3])))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


class _Lang:
    def __init__(self, tag, function_words, lexicon, spaceless=False):
        self.tag = tag
        self.function = function_words
        self.lexicon = lexicon
        self.spaceless = spaceless
        self.hot: list[str] = []  # conversation-favored topical words

    def word(self, rng: random.Random) -> str:
        if not self.spaceless and rng.random() < 0.45:
            return rng.choice(self.function)
        return self.lexicon[_zipf_idx(rng, len(self.lexicon))]


class _World:
    """All language state for one generation run."""

    def __init__(self, rng: random.Random):
        en = _Lang("english", EN_FUNCTION, _make_lexicon(rng, 2200, EN_ONSETS, EN_VOWELS, EN_CODAS, EN_SUFFIXES))
        es = _Lang("spanish", ES_FUNCTION, _make_lexicon(rng, 1300, ES_ONSETS, ES_VOWELS, ES_CODAS, ES_SUFFIXES))
        fr = _Lang("french", FR_FUNCTION, _make_lexicon(rng, 900, ES_ONSETS, FR_VOWELS, ES_CODAS, FR_SUFFIXES))
        de = _Lang("german", DE_FUNCTION, _make_lexicon(rng, 900, EN_ONSETS, DE_VOWELS, EN_CODAS, DE_SUFFIXES))
        pt = _Lang("portuguese", PT_FUNCTION, _make_lexicon(rng, 800, ES_ONSETS, PT_VOWELS, ES_CODAS, PT_SUFFIXES))
        ru = _Lang("russian", RU_FUNCTION, _make_lexicon(rng, 900, RU_ONSETS, RU_VOWELS, RU_CODAS, RU_SUFFIXES))
        zh = _Lang("chinese", [], _make_cjk_lexicon(rng, 800), spaceless=True)
        self.langs = {lang.tag: lang for lang in (en, es, fr, de, pt, ru, zh)}
        self.en = en
        en.hot = [en.lexicon[rng.randrange(100, 1500)] for _ in range(250)]
        # foreign material that web documents quote: heads of each lexicon
        sprinkle: list[str] = []
        for lang, k in ((es, 60), (fr, 35), (de, 35), (pt, 25), (ru, 25)):
            sprinkle += lang.lexicon[:k] + lang.function[: k // 2]
        sprinkle += zh.lexicon[:12]
        self.sprinkle = sprinkle

    def pick_lang(self, rng: random.Random) -> _Lang:
        r = rng.random()
        acc = 0.0
        for tag, weight in LANGUAGE_WEIGHTS:
            acc += weight
            if r < acc:
                return self.langs[tag]
        return self.en


# ---------------------------------------------------------------------------
# Web-style documents
# ---------------------------------------------------------------------------

def _doc_word(rng, en: _Lang) -> str:
    if rng.random() < 0.50:
        return rng.choice(en.function)
    return en.lexicon[_zipf_idx(rng, len(en.lexicon))]


def _url(rng, en: _Lang) -> str:
    return (
        f"https://www.{rng.choice(en.lexicon[:300])}"
        f"{rng.choice(['news', 'info', 'hub', 'site'])}.com/{rng.choice(en.lexicon[:300])}"
    )


def _web_sentence(rng, world: _World) -> str:
    en = world.en
    n = rng.randint(7, 22)
    words = [
        rng.choice(world.sprinkle) if rng.random() < 0.04 else _doc_word(rng, en)
        for _ in range(n)
    ]
    if rng.random() < 0.15:
        words.insert(rng.randrange(len(words)),
                     str(rng.choice([rng.randint(1900, 2026), rng.randint(2, 999)])))
    s = " ".join(words)
    return s[0].upper() + s[1:] + rng.choice([".", ".", ".", ".", "?", "!"])


def _web_document(rng, world: _World) -> str:
    parts = [_web_sentence(rng, world) for _ in range(rng.randint(3, 9))]
    if rng.random() < 0.12:
        parts.append(f"Read more at {_url(rng, world.en)}.")
    if rng.random() < 0.08:
        parts.insert(0, " ".join(
            w.capitalize() for w in (_doc_word(rng, world.en), _doc_word(rng, world.en))
        ) + " -")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Conversations
# ---------------------------------------------------------------------------

def _typo(rng, word: str) -> str:
    if len(word) < 4:
        return word
    i = rng.randrange(len(word) - 1)
    r = rng.random()
    if r < 0.4:
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    if r < 0.7:
        return word[:i] + word[i + 1:]
    return word[:i] + word[i] + word[i:]


def _chat_word(rng, lang: _Lang) -> str:
    if lang.hot and rng.random() < 0.06:
        return lang.hot[_zipf_idx(rng, len(lang.hot))]
    return lang.word(rng)


def _user_turn(rng, world: _World, lang: _Lang) -> str:
    if lang.spaceless:
        body = "".join(lang.word(rng) for _ in range(rng.randint(2, 9)))
        return body + rng.choice(["？", "。", "", ""])
    words = [_chat_word(rng, lang) for _ in range(rng.randint(4, 16))]
    if lang.tag == "english":
        for i in range(len(words)):
            r = rng.random()
            if r < 0.09:
                words[i] = rng.choice(CHAT_SLANG)
            elif r < 0.18:
                words[i] = _typo(rng, words[i])
        s = (rng.choice(USER_LEADS) + " " + " ".join(words)).strip()
        r = rng.random()
        if r < 0.07:
            s += rng.choice([" summarize this: ", " what does this mean: ", " fix this text: "])
            s += _web_sentence(rng, world)
        elif r < 0.12:
            s += " " + rng.choice(["check this link", "i found", "source:"]) + " " + _url(rng, world.en)
    else:
        s = " ".join(words)
    return s + rng.choice(["?", "?", "", ".", "??"])


def _assistant_turn(rng, world: _World, lang: _Lang) -> str:
    if lang.spaceless:
        return "".join(lang.word(rng) for _ in range(rng.randint(8, 26))) + "。"
    n = rng.randint(10, 30)
    if lang.tag == "english":
        words = [
            rng.choice(lang.function) if rng.random() < 0.25 else _chat_word(rng, lang)
            for _ in range(n)
        ]
    else:
        words = [_chat_word(rng, lang) for _ in range(n)]
    s = " ".join(words)
    s = s[0].upper() + s[1:] + "."
    if lang.tag == "english":
        s = rng.choice(ASSISTANT_INTROS) + s
        r = rng.random()
        if r < 0.18:  # encyclopedic register shared with web prose
            s += " " + " ".join(_web_sentence(rng, world) for _ in range(rng.randint(1, 3)))
        elif r < 0.24:
            f = rng.choice(world.en.lexicon)
            a = rng.choice(["x", "value", "items", "count"])
            nn = rng.randint(0, 99)
            lines = [line.format(f=f, a=a, n=nn) for line in rng.sample(CODE_LINES, rng.randint(2, 3))]
            s += "\n```\n" + "\n".join(lines) + "\n```"
        elif r < 0.34:
            s += "\n" + "\n".join(
                f"{i + 1}. " + " ".join(_chat_word(rng, lang) for _ in range(rng.randint(3, 8)))
                for i in range(rng.randint(2, 3))
            )
    return s


def _conversation(rng, world: _World, index: int) -> dict:
    lang = world.pick_lang(rng)
    turns = []
    for _ in range(rng.choice([1, 1, 1, 2])):
        turns.append({"role": "user", "content": _user_turn(rng, world, lang)})
        turns.append({"role": "assistant", "content": _assistant_turn(rng, world, lang)})
    return {
        "id": f"conv-{index:05d}-{rng.getrandbits(32):08x}",
        "model": rng.choice(MODEL_NAMES),
        "language": lang.tag,
        "turns": turns,
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def generate_corpora(
    seed: int = DEFAULT_SEED,
    doc_bytes: int = DEFAULT_DOC_BYTES,
    conv_bytes: int = DEFAULT_CONV_BYTES,
) -> tuple[list[str], list[str]]:
    """Return (documents, conversation JSONL lines), each roughly the
    requested byte size."""
    rng = random.Random(seed)
    world = _World(rng)
    documents: list[str] = []
    total = 0
    while total < doc_bytes:
        doc = _web_document(rng, world)
        documents.append(doc)
        total += len(doc.encode("utf-8")) + 1
    lines: list[str] = []
    total = 0
    index = 0
    while total < conv_bytes:
        record = _conversation(rng, world, index)
        line = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
        lines.append(line)
        total += len(line.encode("utf-8")) + 1
        index += 1
    return documents, lines


def write_sample_corpora(
    out_dir: str | Path,
    seed: int = DEFAULT_SEED,
    doc_bytes: int = DEFAULT_DOC_BYTES,
    conv_bytes: int = DEFAULT_CONV_BYTES,
) -> tuple[Path, Path]:
    """Write documents.txt and conversations.jsonl under ``out_dir`` and
    return their paths. Same arguments always produce byte-identical files."""
    out = Path(out_dir)
    documents, lines = generate_corpora(seed=seed, doc_bytes=doc_bytes, conv_bytes=conv_bytes)
    return (
        write_atomic(out / "documents.txt", ("\n".join(documents) + "\n").encode("utf-8")),
        write_atomic(out / "conversations.jsonl", ("\n".join(lines) + "\n").encode("utf-8")),
    )
