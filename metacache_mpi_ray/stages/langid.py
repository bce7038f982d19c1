"""Character-trigram language identification — the round-3 upgrade of
the 4-language stopword heuristic (VERDICT r2 item 10).

Two layers, both vectorized:

1. *Script detection*: languages written in a distinctive script
   (Cyrillic, Greek, Arabic, Hebrew, CJK, Hangul, Devanagari, Thai) are
   decided from UTF-8 lead-byte histograms — O(bytes), no model.
2. *Trigram profiles* for Latin-script languages: per-language trigram
   weight tables built once, on the driver, from the embedded seed text
   (hand-written common-usage sentences — no external data, the model
   ships with the code). A document's score for language L is the sum
   of L's profile weights over the document's trigram occurrences (the
   classic Cavnar-Trenkle / cosine profile family), computed as one
   hash-gather + reduceat per language over the whole batch.

Accuracy is held to >= 0.9 on a held-out multilingual corpus in
tests/test_operators.py; this is a lightweight n-gram model, not a
neural identifier — swap the profile table for a bigger one to extend.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from metacache_mpi_ray.functions.hashing import U64

# hand-written seed text per Latin-script language: common function
# words and everyday phrasing, the highest-signal trigram carriers
_SEED_TEXT = {
    "en": (
        "the quick brown fox jumps over the lazy dog and this is the house "
        "that we built together because there is nothing better than being "
        "with the people you love and the things that you know will not change"
    ),
    "de": (
        "der schnelle braune fuchs springt über den faulen hund und das ist "
        "das haus das wir zusammen gebaut haben weil es nichts besseres gibt "
        "als mit den menschen zu sein die man liebt und die dinge die sich "
        "nicht verändern werden"
    ),
    "fr": (
        "le renard brun rapide saute par dessus le chien paresseux et c'est "
        "la maison que nous avons construite ensemble parce qu'il n'y a rien "
        "de mieux que d'être avec les gens que l'on aime et les choses qui ne "
        "changeront pas"
    ),
    "es": (
        "el rápido zorro marrón salta sobre el perro perezoso y esta es la "
        "casa que construimos juntos porque no hay nada mejor que estar con "
        "la gente que quieres y las cosas que sabes que no van a cambiar"
    ),
    "it": (
        "la rapida volpe marrone salta sopra il cane pigro e questa è la casa "
        "che abbiamo costruito insieme perché non c'è niente di meglio che "
        "stare con le persone che ami e le cose che sai che non cambieranno"
    ),
    "pt": (
        "a rápida raposa marrom pula sobre o cão preguiçoso e esta é a casa "
        "que construímos juntos porque não há nada melhor do que estar com as "
        "pessoas que você ama e as coisas que você sabe que não vão mudar"
    ),
    "nl": (
        "de snelle bruine vos springt over de luie hond en dit is het huis "
        "dat wij samen hebben gebouwd omdat er niets beters is dan bij de "
        "mensen te zijn van wie je houdt en de dingen die niet zullen veranderen"
    ),
    "sv": (
        "den snabba bruna räven hoppar över den lata hunden och det här är "
        "huset som vi byggde tillsammans eftersom det inte finns något bättre "
        "än att vara med människorna du älskar och sakerna som inte förändras"
    ),
    "da": (
        "den hurtige brune ræv springer over den dovne hund og det er huset "
        "som vi byggede sammen fordi der ikke findes noget bedre end at være "
        "sammen med de mennesker man elsker og de ting der ikke vil ændre sig"
    ),
    "no": (
        "den raske brune reven hopper over den late hunden og dette er huset "
        "som vi bygde sammen fordi det ikke finnes noe bedre enn å være med "
        "menneskene du er glad i og tingene som ikke kommer til å endre seg"
    ),
    "fi": (
        "nopea ruskea kettu hyppää laiskan koiran yli ja tämä on talo jonka "
        "rakensimme yhdessä koska ei ole mitään parempaa kuin olla niiden "
        "ihmisten kanssa joita rakastat ja niiden asioiden jotka eivät muutu"
    ),
    "pl": (
        "szybki brązowy lis skacze przez leniwego psa i to jest dom który "
        "zbudowaliśmy razem ponieważ nie ma nic lepszego niż być z ludźmi "
        "których kochasz i rzeczami o których wiesz że się nie zmienią"
    ),
    "cs": (
        "rychlá hnědá liška skáče přes líného psa a tohle je dům který jsme "
        "postavili společně protože není nic lepšího než být s lidmi které "
        "máš rád a s věcmi o kterých víš že se nezmění"
    ),
    "ro": (
        "vulpea maro rapidă sare peste câinele leneș și aceasta este casa pe "
        "care am construit-o împreună pentru că nu există nimic mai bun decât "
        "să fii cu oamenii pe care îi iubești și lucrurile care nu se vor schimba"
    ),
    "hu": (
        "a gyors barna róka átugrik a lusta kutya felett és ez az a ház "
        "amelyet együtt építettünk mert nincs jobb annál mint azokkal az "
        "emberekkel lenni akiket szeretsz és azokkal a dolgokkal amelyek nem "
        "változnak meg"
    ),
    "tr": (
        "hızlı kahverengi tilki tembel köpeğin üzerinden atlar ve bu birlikte "
        "inşa ettiğimiz evdir çünkü sevdiğin insanlarla ve değişmeyeceğini "
        "bildiğin şeylerle olmaktan daha iyi bir şey yoktur"
    ),
    "id": (
        "rubah coklat yang cepat melompati anjing yang malas dan ini adalah "
        "rumah yang kita bangun bersama karena tidak ada yang lebih baik "
        "daripada bersama orang orang yang kamu cintai dan hal hal yang kamu "
        "tahu tidak akan berubah"
    ),
    "vi": (
        "con cáo nâu nhanh nhẹn nhảy qua con chó lười biếng và đây là ngôi "
        "nhà mà chúng ta đã cùng nhau xây dựng bởi vì không có gì tốt hơn là "
        "được ở bên những người bạn yêu thương và những điều bạn biết sẽ "
        "không thay đổi"
    ),
    "sw": (
        "mbweha mwepesi wa kahawia anaruka juu ya mbwa mvivu na hii ndiyo "
        "nyumba tuliyoijenga pamoja kwa sababu hakuna kitu bora zaidi kuliko "
        "kuwa na watu unaowapenda na vitu unavyojua havitabadilika"
    ),
    "tl": (
        "ang mabilis na kayumangging soro ay tumalon sa tamad na aso at ito "
        "ang bahay na itinayo natin nang magkasama dahil walang mas maganda "
        "kaysa makasama ang mga taong mahal mo at ang mga bagay na alam mong "
        "hindi magbabago"
    ),
}

# UTF-8 lead-byte signatures for distinctive scripts -> language guess
# (coarse: a script maps to its dominant web language)
_SCRIPTS = [
    ("ru", lambda b: ((b >= 0xD0) & (b <= 0xD1))),          # Cyrillic
    ("el", lambda b: ((b >= 0xCE) & (b <= 0xCF))),          # Greek
    ("he", lambda b: (b == 0xD7)),                          # Hebrew
    ("ar", lambda b: ((b >= 0xD8) & (b <= 0xDB))),          # Arabic
    ("zh", lambda b: ((b >= 0xE4) & (b <= 0xE9))),          # CJK ideographs
    ("ko", lambda b: ((b >= 0xEA) & (b <= 0xED))),          # Hangul
    ("ja", lambda b: (b == 0xE3)),                          # kana
    ("hi", lambda b: (b == 0xE0)),                          # Devanagari/Thai lead
]


def _trigram_hashes(data: np.ndarray) -> np.ndarray:
    """u64 hash per 3-byte window of a lowercase byte stream."""
    if len(data) < 3:
        return np.zeros(0, dtype=U64)
    w = (
        data[:-2].astype(U64) << U64(16)
    ) | (data[1:-1].astype(U64) << U64(8)) | data[2:].astype(U64)
    return w


def _lower_ascii(data: np.ndarray) -> np.ndarray:
    up = (data >= 65) & (data <= 90)
    out = data.copy()
    out[up] += 32
    return out


class TrigramLangId:
    """Batch stage: docs -> (doc_id, pred_lang, lang_score).

    Profiles build once in ``__init__`` on the driver and the instance
    ships in the pickled callable (task pool); scoring is one searchsorted gather + reduceat per language
    over the batch's concatenated trigram stream."""

    def __init__(self, extra_seed_text: dict | None = None):
        seeds = dict(_SEED_TEXT)
        if extra_seed_text:
            seeds.update(extra_seed_text)
        self.langs = sorted(seeds)
        ids_l, w_l = [], []
        for lang in self.langs:
            data = _lower_ascii(
                np.frombuffer((" " + seeds[lang] + " ").encode("utf-8"), dtype=np.uint8)
            )
            tg = _trigram_hashes(data)
            ids, counts = np.unique(tg, return_counts=True)
            w = counts.astype(np.float64)
            w /= np.linalg.norm(w)
            ids_l.append(ids)
            w_l.append(w)
        self.profile_ids = ids_l
        self.profile_w = w_l

    def __call__(self, batch: pa.Table) -> pa.Table:
        from metacache_mpi_ray.functions.hashing import arrow_string_buffer

        data, starts, ends = arrow_string_buffer(batch["text"])
        n = len(starts)
        if n == 0:
            return pa.table(
                {"doc_id": batch["doc_id"],
                 "pred_lang": pa.array([], type=pa.string()),
                 "lang_score": pa.array([], type=pa.float64())}
            )
        low = _lower_ascii(data)
        tg_all = _trigram_hashes(low)
        # per-doc trigram slices: windows fully inside a row
        lens = np.maximum(ends - starts - 2, 0)
        valid_starts = starts.astype(np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        total = int(offs[-1])
        if total:
            seg0 = offs[:-1]
            within = np.arange(total, dtype=np.int64) - np.repeat(seg0, lens)
            pos = np.repeat(valid_starts, lens) + within
            tg = tg_all[pos]
        else:
            tg = np.zeros(0, dtype=U64)
        scores = np.zeros((n, len(self.langs)), dtype=np.float64)
        nz = lens > 0
        # reduceat over non-empty segments only: clipping an empty
        # trailing segment's boundary into range would truncate the
        # previous doc's segment and make scores depend on batch
        # composition (r3 review finding)
        seg_idx = offs[:-1][nz]
        for j, (pids, pw) in enumerate(zip(self.profile_ids, self.profile_w)):
            if total == 0 or not nz.any():
                break
            ppos = np.minimum(np.searchsorted(pids, tg), len(pids) - 1)
            wvals = np.where(pids[ppos] == tg, pw[ppos], 0.0)
            sums = np.zeros(n, dtype=np.float64)
            sums[nz] = np.add.reduceat(wvals, seg_idx)
            scores[:, j] = sums / np.sqrt(np.maximum(lens, 1))
        # script override: distinctive non-Latin lead bytes win outright
        pred = np.asarray(self.langs, dtype=object)[scores.argmax(axis=1)]
        best = scores.max(axis=1)
        # per-doc lead-byte histogram over the shared buffer
        for name, mask_fn in _SCRIPTS:
            m = mask_fn(data).astype(np.int64)
            cs = np.concatenate([[0], np.cumsum(m)])
            per_doc = cs[ends] - cs[starts]
            frac = per_doc / np.maximum(ends - starts, 1)
            hit = frac > 0.15
            pred = np.where(hit, name, pred)
            best = np.where(hit, frac, best)
        pred = np.where(best > 0.02, pred, "unknown")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": pa.array(pred.tolist(), type=pa.string()),
                "lang_score": pa.array(best, type=pa.float64()),
            }
        )
